/**
 * @file
 * Oracle policy [113] — complete future knowledge.
 *
 * A future-knowledge heuristic, not a proven bound: with the full trace
 * in hand, the oracle places a request's pages in fast storage exactly
 * when they will be reused soon, and leaves eviction to the system's
 * LRU. Measured against the other policies it is not always best (under
 * H&M it trails Slow-Only on some write-heavy workloads), so figures
 * that normalize to it compare against a strong heuristic, not an
 * upper bound.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "policies/policy.hh"

namespace sibyl::policies
{

/** Tunables of the oracle. */
struct OracleConfig
{
    /**
     * Hard cap on how far in the future a reuse may be to still justify
     * caching, in requests. 0 derives the cap from the fast-device
     * capacity (capacityPages x lookaheadPerPage) — beyond that horizon
     * the page would be evicted before its reuse anyway.
     */
    std::size_t lookaheadRequests = 0;

    /** Window derivation factor when lookaheadRequests == 0. */
    double lookaheadPerPage = 1.0;
};

/** The Oracle policy. */
class OraclePolicy : public PlacementPolicy
{
  public:
    explicit OraclePolicy(const OracleConfig &cfg = OracleConfig());

    std::string name() const override { return "Oracle"; }

    /** Find every request's soonest future reuse in one backward sweep
     *  of @p t, and derive the lookahead and write policy from @p sys. */
    void prepare(const trace::Trace &t, hss::HybridSystem &sys) override;

    DeviceId selectPlacement(const hss::HybridSystem &sys,
                             const trace::Request &req,
                             std::size_t reqIndex) override;

    void reset() override;

  private:
    /** soonest_ entry of a request none of whose pages recur. */
    static constexpr std::uint32_t kNever = UINT32_MAX;

    OracleConfig cfg_;

    /** Per request index: the first later request that touches any of
     *  its pages, or kNever. */
    std::vector<std::uint32_t> soonest_;

    std::size_t lookahead_ = 0;
    bool absorbDeadWrites_ = false;
};

} // namespace sibyl::policies
