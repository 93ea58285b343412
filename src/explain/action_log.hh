/**
 * @file
 * Per-decision action logging for the §9 explainability analysis.
 *
 * The paper explains Sibyl's behaviour by extracting its actions and
 * aggregating placement preferences per workload and configuration
 * (Fig. 17) and eviction counts (Fig. 18). This module records every
 * decision with its observation so those aggregates — and finer
 * slices, such as preference per feature bin — can be computed after
 * a run.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "ml/matrix.hh"

namespace sibyl::explain
{

/** One logged placement decision. */
struct DecisionRecord
{
    std::uint64_t reqIndex = 0;  ///< request index in the trace
    ml::Vector state;            ///< encoded observation O_t
    std::uint32_t action = 0;    ///< chosen device
    bool eviction = false;       ///< the request triggered eviction
    double latencyUs = 0.0;      ///< served latency
};

/** Preference aggregate over a slice of decisions. */
struct PreferenceStats
{
    std::uint64_t decisions = 0;
    std::uint64_t fastPlacements = 0;

    /** #fast placements / #placements, the Fig. 17 metric. */
    double
    preference() const
    {
        return decisions == 0
            ? 0.0
            : static_cast<double>(fastPlacements) /
                  static_cast<double>(decisions);
    }
};

/**
 * Bounded in-memory decision log.
 *
 * Records up to `capacity` decisions (oldest dropped first) and
 * computes explainability aggregates over them.
 */
class ActionLog
{
  public:
    explicit ActionLog(std::size_t capacity = 1 << 20);

    /** Append a decision (drops the oldest past capacity). */
    void record(DecisionRecord rec);

    std::size_t size() const { return records_.size(); }
    const DecisionRecord &operator[](std::size_t i) const
    {
        return records_.at(i);
    }

    /** Overall fast-device preference (Fig. 17). */
    PreferenceStats overallPreference() const;

    /**
     * Preference split by the value of state feature @p featureIndex,
     * quantized into @p bins equal slices of [0,1]. Shows *which states*
     * the agent maps to fast storage — e.g., preference rising with
     * access count means Sibyl learned hotness.
     */
    std::vector<PreferenceStats>
    preferenceByFeature(std::size_t featureIndex, std::size_t bins) const;

    /** Fraction of logged decisions that triggered an eviction. */
    double evictionFraction() const;

    /**
     * Preference over time: the log split into @p windows equal
     * chunks, preference per chunk. Reveals online adaptation (e.g.,
     * the policy shifting after a workload phase change).
     */
    std::vector<PreferenceStats> preferenceTimeline(std::size_t windows)
        const;

    void clear();

  private:
    std::size_t capacity_;
    std::vector<DecisionRecord> records_;
    std::size_t head_ = 0; ///< ring start when wrapped
    bool wrapped_ = false;
};

} // namespace sibyl::explain
