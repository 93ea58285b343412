/**
 * @file
 * Streaming statistics helpers used by the simulator's metric collection
 * and by the trace characterization benches (Table 4, Fig. 3).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sibyl
{

/**
 * Numerically stable running mean/variance/min/max accumulator
 * (Welford's algorithm). O(1) memory regardless of sample count.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bin histogram over [lo, hi) with overflow/underflow buckets.
 * Used for latency distribution reporting.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    /** Count one sample. NaN counts as overflow (it is not less than
     *  any bound, so the tail is the only bucket that cannot
     *  understate it); the exact min/max of finite samples are
     *  tracked so quantile() can clamp to the observed range. */
    void add(double x);
    void reset();

    std::uint64_t count() const { return total_; }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::size_t bins() const { return counts_.size(); }
    double binLow(std::size_t i) const;
    double binHigh(std::size_t i) const;
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Smallest/largest finite sample added (0 when none yet). */
    double minSeen() const;
    double maxSeen() const;

    /**
     * Approximate p-quantile (e.g., 0.5 for median, 0.99 for tail) by
     * linear interpolation within the containing bin, clamped to the
     * [minSeen, maxSeen] range of finite samples — interpolation
     * alone can overshoot the largest (or undershoot the smallest)
     * observed value inside a bin, so without the clamp an all-equal
     * sample set reports quantiles that nothing ever measured.
     * No samples -> lo.
     */
    double quantile(double p) const;

    /** Fold @p other into this histogram. Both must have identical
     *  [lo, hi)/bin geometry; throws std::invalid_argument otherwise.
     *  Used to aggregate per-tenant latency distributions into fleet
     *  totals. */
    void merge(const Histogram &other);

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t finite_ = 0;
    double minSeen_ = 0.0;
    double maxSeen_ = 0.0;
};

} // namespace sibyl
