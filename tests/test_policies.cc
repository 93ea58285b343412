/**
 * @file
 * Behavioural tests for the baseline placement policies on crafted
 * traces and systems.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hss/hybrid_system.hh"
#include "policies/archivist.hh"
#include "policies/cde.hh"
#include "policies/hps.hh"
#include "policies/oracle.hh"
#include "policies/rnn_hss.hh"
#include "policies/static_policies.hh"
#include "policies/tri_heuristic.hh"
#include "trace/workloads.hh"

#include <algorithm>
#include <unordered_map>

namespace sibyl::policies
{
namespace
{

std::vector<device::DeviceSpec>
config(std::uint64_t fastPages = 64, std::uint64_t slowPages = 8192)
{
    auto h = device::deviceH();
    h.capacityPages = fastPages;
    auto m = device::deviceM();
    m.capacityPages = slowPages;
    return {h, m};
}

trace::Request
req(PageId page, std::uint32_t size, OpType op)
{
    return {0.0, page, size, op};
}

TEST(StaticPolicies, ExtremesPickEnds)
{
    hss::HybridSystem sys(config());
    FastOnlyPolicy fast;
    SlowOnlyPolicy slow;
    EXPECT_EQ(fast.selectPlacement(sys, req(1, 1, OpType::Read), 0), 0u);
    EXPECT_EQ(slow.selectPlacement(sys, req(1, 1, OpType::Read), 0), 1u);
    EXPECT_EQ(fast.name(), "Fast-Only");
    EXPECT_EQ(slow.name(), "Slow-Only");
}

TEST(Cde, HotWritesGoFast)
{
    hss::HybridSystem sys(config());
    CdePolicy cde;
    // Page 5 becomes hot (>= 4 accesses).
    for (int i = 0; i < 5; i++)
        sys.serve(i, req(5, 1, OpType::Read), 1);
    // Hot write -> fast, even when large/sequential.
    EXPECT_EQ(cde.selectPlacement(sys, req(5, 16, OpType::Write), 9), 0u);
}

TEST(Cde, RandomSmallWritesGoFastColdSeqGoSlow)
{
    hss::HybridSystem sys(config());
    CdePolicy cde;
    // Cold small (random) write -> fast.
    EXPECT_EQ(cde.selectPlacement(sys, req(7, 2, OpType::Write), 0), 0u);
    // Cold large (sequential) write -> slow.
    EXPECT_EQ(cde.selectPlacement(sys, req(8, 32, OpType::Write), 1), 1u);
}

TEST(Cde, ReadsKeepCurrentPlacement)
{
    hss::HybridSystem sys(config());
    CdePolicy cde;
    sys.serve(0.0, req(3, 1, OpType::Write), 0);
    EXPECT_EQ(cde.selectPlacement(sys, req(3, 1, OpType::Read), 1), 0u);
    // Unknown page reads -> slow.
    EXPECT_EQ(cde.selectPlacement(sys, req(99, 1, OpType::Read), 2), 1u);
}

TEST(Hps, HotSetFromPreviousEpoch)
{
    hss::HybridSystem sys(config());
    HpsConfig cfg;
    cfg.epochLength = 10;
    cfg.hotThreshold = 2;
    HpsPolicy hps(cfg);
    // Epoch 0: page 1 touched 5 times, page 2 once.
    std::size_t i = 0;
    for (; i < 5; i++)
        hps.selectPlacement(sys, req(1, 1, OpType::Read), i);
    hps.selectPlacement(sys, req(2, 1, OpType::Read), i++);
    for (; i < 10; i++)
        hps.selectPlacement(sys, req(3, 1, OpType::Read), i);
    // Epoch 1: page 1 is hot now; page 2 is not.
    EXPECT_EQ(hps.selectPlacement(sys, req(1, 1, OpType::Read), 10), 0u);
    EXPECT_EQ(hps.selectPlacement(sys, req(2, 1, OpType::Read), 11), 1u);
}

TEST(Hps, ResetForgetsHotSet)
{
    hss::HybridSystem sys(config());
    HpsConfig cfg;
    cfg.epochLength = 4;
    cfg.hotThreshold = 1;
    HpsPolicy hps(cfg);
    for (std::size_t i = 0; i < 4; i++)
        hps.selectPlacement(sys, req(1, 1, OpType::Read), i);
    EXPECT_EQ(hps.selectPlacement(sys, req(1, 1, OpType::Read), 4), 0u);
    hps.reset();
    EXPECT_EQ(hps.selectPlacement(sys, req(1, 1, OpType::Read), 0), 1u);
}

TEST(Archivist, ConservativeBeforeFirstEpoch)
{
    hss::HybridSystem sys(config());
    ArchivistPolicy arch;
    EXPECT_EQ(arch.selectPlacement(sys, req(1, 1, OpType::Read), 0), 1u);
}

TEST(Archivist, LearnsHotnessAcrossEpochs)
{
    hss::HybridSystem sys(config(/*fastPages=*/64, /*slowPages=*/65536));
    ArchivistConfig cfg;
    cfg.epochLength = 200;
    cfg.trainPasses = 4;
    ArchivistPolicy arch(cfg);
    // Two epochs where small-read pages are hot and large writes cold.
    std::size_t idx = 0;
    std::uint64_t fastDecisions = 0;
    for (int epoch = 0; epoch < 4; epoch++) {
        for (int i = 0; i < 100; i++) {
            // Hot page set 0..9, accessed repeatedly.
            auto a = arch.selectPlacement(
                sys, req(i % 10, 1, OpType::Read), idx++);
            sys.serve(static_cast<double>(idx), req(i % 10, 1,
                      OpType::Read), a);
            if (epoch == 3 && a == 0)
                fastDecisions++;
            // Cold pages: one-shot large writes.
            PageId coldPage = 1000 + static_cast<PageId>(idx) * 32;
            auto b = arch.selectPlacement(
                sys, req(coldPage, 24, OpType::Write), idx);
            sys.serve(static_cast<double>(idx),
                      req(coldPage, 24, OpType::Write), b);
            idx++;
        }
    }
    // By the last epoch the classifier should route most hot reads fast.
    EXPECT_GT(fastDecisions, 50u);
}

TEST(RnnHss, UntrainedStaysSlow)
{
    hss::HybridSystem sys(config());
    RnnHssPolicy rnn;
    EXPECT_EQ(rnn.selectPlacement(sys, req(1, 1, OpType::Read), 0), 1u);
}

TEST(RnnHss, TrainsOfflineAndPlacesHotPages)
{
    trace::Trace t = trace::makeWorkload("prxy_1", 8000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    RnnHssPolicy rnn;
    rnn.prepare(t, sys);
    std::uint64_t fast = 0;
    for (std::size_t i = 0; i < t.size(); i++) {
        auto a = rnn.selectPlacement(sys, t[i], i);
        sys.serve(t[i].timestamp, t[i], a);
        fast += a == 0;
    }
    // A hot workload must produce a meaningful number of fast decisions.
    EXPECT_GT(fast, t.size() / 20);
}

TEST(Oracle, AdmitsReusedDeniesSingleUse)
{
    trace::Trace t("crafted");
    // Page 1 reused immediately; page 100 never again.
    t.add({0.0, 1, 1, OpType::Read});
    t.add({1.0, 100, 1, OpType::Read});
    t.add({2.0, 1, 1, OpType::Read});
    auto specs = config();
    hss::HybridSystem sys(specs);
    OraclePolicy oracle;
    oracle.prepare(t, sys);
    EXPECT_EQ(oracle.selectPlacement(sys, t[0], 0), 0u); // reused soon
    EXPECT_EQ(oracle.selectPlacement(sys, t[1], 1), 1u); // never again
}

/**
 * Reference next-use index: per page, the sorted request indices that
 * touch it, searched with upper_bound. The slow, obviously-right answer
 * that the Oracle's one backward sweep in prepare() is checked against.
 */
class NextUseReference
{
  public:
    explicit NextUseReference(const trace::Trace &t)
    {
        for (std::size_t i = 0; i < t.size(); i++)
            for (PageId p = t[i].page; p < t[i].endPage(); p++)
                accesses_[p].push_back(static_cast<std::uint32_t>(i));
    }

    /** First request after @p after touching @p page, or SIZE_MAX. */
    std::size_t nextUse(PageId page, std::size_t after) const
    {
        auto it = accesses_.find(page);
        if (it == accesses_.end())
            return SIZE_MAX;
        const auto &v = it->second;
        auto pos = std::upper_bound(v.begin(), v.end(),
                                    static_cast<std::uint32_t>(after));
        return pos == v.end() ? SIZE_MAX : static_cast<std::size_t>(*pos);
    }

  private:
    std::unordered_map<PageId, std::vector<std::uint32_t>> accesses_;
};

/** True when the Oracle under @p specs absorbs single-use small writes
 *  (probed with a one-request trace whose page never recurs). */
bool
absorbsDeadWrites(const std::vector<device::DeviceSpec> &specs)
{
    trace::Trace t("probe");
    t.add({0.0, 1, 1, OpType::Write});
    hss::HybridSystem sys(specs);
    OraclePolicy oracle;
    oracle.prepare(t, sys);
    return oracle.selectPlacement(sys, t[0], 0) == 0;
}

/**
 * Every Oracle decision on random traces equals the one the reference
 * index gives: fast iff the request's soonest reuse lies within the
 * lookahead, or it is a small write the slow device would pay more for.
 * The traces mix reads and writes with multi-page extents, overlap
 * extents across requests, give different pages of one request
 * different next uses, and plant reuses exactly at the lookahead edge.
 */
TEST(Oracle, AdmissionMatchesPerPageIndexReference)
{
    constexpr std::size_t kLookahead = 40;
    const std::vector<std::vector<device::DeviceSpec>> configs = {
        config(), hss::makeHssConfig("H&L", 2000, 0.10)};
    std::size_t atEdge = 0;
    std::size_t pastEdge = 0;
    std::size_t minFromLaterPage = 0;
    std::size_t absorbedWrites = 0;
    for (const auto &specs : configs) {
        const bool absorb = absorbsDeadWrites(specs);
        for (std::uint64_t seed = 1; seed <= 3; seed++) {
            Pcg32 rng(seed * 0x9E37);
            trace::Trace t("random");
            for (std::size_t i = 0; i < 3000; i++) {
                trace::Request r;
                r.timestamp = static_cast<double>(i);
                r.sizePages = 1 + rng.nextBounded(12);
                r.op = rng.nextBounded(3) == 0 ? OpType::Write
                                               : OpType::Read;
                const std::uint32_t pick = rng.nextBounded(8);
                if (pick == 0 && i >= kLookahead) {
                    // Reuse exactly at the lookahead edge, or one past.
                    r.page = t[i - kLookahead - rng.nextBounded(2)].page;
                } else if (pick == 1 && i > 0) {
                    // Overlap the previous extent's tail.
                    r.page = t[i - 1].endPage() - 1;
                } else {
                    r.page = rng.nextBounded(1500);
                }
                t.add(r);
            }

            hss::HybridSystem sys(specs);
            OracleConfig ocfg;
            ocfg.lookaheadRequests = kLookahead;
            OraclePolicy oracle(ocfg);
            oracle.prepare(t, sys);
            const NextUseReference ref(t);
            const DeviceId slow = sys.numDevices() - 1;
            for (std::size_t i = 0; i < t.size(); i++) {
                const trace::Request &r = t[i];
                std::size_t soonest = SIZE_MAX;
                for (PageId p = r.page; p < r.endPage(); p++) {
                    const std::size_t next = ref.nextUse(p, i);
                    if (next < soonest && p != r.page)
                        minFromLaterPage++;
                    soonest = std::min(soonest, next);
                }
                const bool reused =
                    soonest != SIZE_MAX && soonest - i <= kLookahead;
                const bool absorbed = !reused && absorb &&
                    r.op == OpType::Write && r.sizePages <= 8;
                if (soonest != SIZE_MAX && soonest - i == kLookahead)
                    atEdge++;
                if (soonest != SIZE_MAX && soonest - i == kLookahead + 1)
                    pastEdge++;
                absorbedWrites += absorbed ? 1 : 0;
                ASSERT_EQ(oracle.selectPlacement(sys, r, i),
                          reused || absorbed ? 0u : slow)
                    << "request " << i << " seed " << seed;
            }
        }
    }
    EXPECT_GT(atEdge, 0u);
    EXPECT_GT(pastEdge, 0u);
    EXPECT_GT(minFromLaterPage, 0u);
    EXPECT_GT(absorbedWrites, 0u);
}

TEST(TriHeuristic, HotColdFrozenSplit)
{
    auto specs = hss::makeHssConfig("H&M&L", 10000, 0.05);
    hss::HybridSystem sys(specs);
    TriHeuristicPolicy tri;
    // Frozen: never-seen large read.
    EXPECT_EQ(tri.selectPlacement(sys, req(1, 16, OpType::Read), 0), 2u);
    // Warm it up to cold (2-7 accesses) -> M.
    for (int i = 0; i < 3; i++)
        sys.serve(i, req(1, 1, OpType::Read), 2);
    EXPECT_EQ(tri.selectPlacement(sys, req(1, 16, OpType::Read), 5), 1u);
    // Hot (>= 8 accesses) -> H.
    for (int i = 0; i < 6; i++)
        sys.serve(10 + i, req(1, 1, OpType::Read), 1);
    EXPECT_EQ(tri.selectPlacement(sys, req(1, 16, OpType::Read), 9), 0u);
}

TEST(TriHeuristic, RandomColdWritesGoFast)
{
    auto specs = hss::makeHssConfig("H&M&L", 10000, 0.05);
    hss::HybridSystem sys(specs);
    TriHeuristicPolicy tri;
    // 2 prior accesses (cold) + small write -> H per the CDE heritage.
    sys.serve(0, req(2, 1, OpType::Read), 2);
    sys.serve(1, req(2, 1, OpType::Read), 2);
    EXPECT_EQ(tri.selectPlacement(sys, req(2, 2, OpType::Write), 2), 0u);
}

} // namespace
} // namespace sibyl::policies
