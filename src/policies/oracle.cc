#include "policies/oracle.hh"

#include <algorithm>
#include <unordered_map>

namespace sibyl::policies
{

OraclePolicy::OraclePolicy(const OracleConfig &cfg) : cfg_(cfg) {}

void
OraclePolicy::prepare(const trace::Trace &t, hss::HybridSystem &sys)
{
    // Sweep the trace backwards keeping, per page, the next request
    // that touches it: a request's soonest reuse is the minimum over
    // its pages before they are re-stamped with its own index. (The
    // pages of one request are distinct, so re-stamping one cannot
    // feed another's minimum.)
    soonest_.assign(t.size(), kNever);
    std::unordered_map<PageId, std::uint32_t> nextUse;
    nextUse.reserve(t.uniquePages());
    for (std::size_t i = t.size(); i-- > 0;) {
        const auto &r = t[i];
        const auto idx = static_cast<std::uint32_t>(i);
        std::uint32_t soonest = kNever;
        for (PageId p = r.page; p < r.endPage(); p++) {
            auto [it, fresh] = nextUse.try_emplace(p, idx);
            if (!fresh) {
                soonest = std::min(soonest, it->second);
                it->second = idx;
            }
        }
        soonest_[i] = soonest;
    }

    lookahead_ = cfg_.lookaheadRequests;
    if (lookahead_ == 0) {
        std::uint64_t fastCap = sys.device(0).spec().capacityPages;
        lookahead_ = static_cast<std::size_t>(
            cfg_.lookaheadPerPage * static_cast<double>(fastCap));
        lookahead_ = std::max<std::size_t>(lookahead_, 64);
    }

    // Cost-aware dead-write absorption: writing single-use data to the
    // fast device is profitable only when the slow device's random
    // write is costlier than the eventual (batched) eviction copy.
    const auto &fast = sys.device(0).spec();
    const auto &slow = sys.device(sys.numDevices() - 1).spec();
    double slowWrite = slow.writeLatencyUs +
        (slow.kind == device::DeviceKind::Hdd
             ? slow.seekUs + slow.rotationalUs
             : slow.randomPenaltyUs(OpType::Write));
    double evictCost = (fast.readLatencyUs + slowWrite) /
        device::kMigrationBatch;
    absorbDeadWrites_ = slowWrite > fast.writeLatencyUs + 2.0 * evictCost;
}

DeviceId
OraclePolicy::selectPlacement(const hss::HybridSystem &sys,
                              const trace::Request &req,
                              std::size_t reqIndex)
{
    const DeviceId fast = 0;
    const DeviceId slow = sys.numDevices() - 1;

    // Admission with complete future knowledge:
    //  - cache pages whose next use falls within a window calibrated to
    //    the fast-device capacity (further-out reuses would be evicted
    //    before they pay off), and
    //  - absorb small random writes when the slow device's positioning
    //    cost exceeds the eventual eviction cost (computed in prepare()).
    const std::uint32_t soonest =
        reqIndex < soonest_.size() ? soonest_[reqIndex] : kNever;
    bool cacheWorthy = soonest != kNever && soonest - reqIndex <= lookahead_;
    if (!cacheWorthy && absorbDeadWrites_ && req.op == OpType::Write &&
        req.sizePages <= 8) {
        cacheWorthy = true;
    }
    return cacheWorthy ? fast : slow;
}

void
OraclePolicy::reset()
{
    soonest_.clear();
    absorbDeadWrites_ = false;
}

} // namespace sibyl::policies
