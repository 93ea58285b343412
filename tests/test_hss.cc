/**
 * @file
 * Tests for the storage management layer: mapping metadata, LRU
 * recency, and the hybrid system's serve/migrate/evict machinery,
 * including the occupancy == residency invariant under random load.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hss/hybrid_system.hh"
#include "hss/metadata.hh"
#include "policies/oracle.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

#include <list>
#include <stdexcept>
#include <unordered_map>

namespace sibyl::hss
{
namespace
{

std::vector<device::DeviceSpec>
tinyConfig(std::uint64_t fastPages = 8, std::uint64_t slowPages = 1024)
{
    auto h = device::deviceH();
    h.capacityPages = fastPages;
    auto m = device::deviceM();
    m.capacityPages = slowPages;
    return {h, m};
}

trace::Request
req(PageId page, std::uint32_t size, OpType op, SimTime ts = 0.0)
{
    return {ts, page, size, op};
}

// --------------------------- PageMetaTable ---------------------------

TEST(PageMetaTable, AccessCountAndInterval)
{
    PageMetaTable meta(2);
    EXPECT_EQ(meta.accessCount(5), 0u);
    meta.touch(5);
    meta.touch(6);
    meta.touch(5);
    EXPECT_EQ(meta.accessCount(5), 2u);
    // 5 last touched at tick 3; current tick 3 -> interval 0.
    EXPECT_EQ(meta.accessInterval(5), 0u);
    meta.touch(7);
    meta.touch(8);
    EXPECT_EQ(meta.accessInterval(5), 2u);
    // Unknown page: interval == current tick (i.e., "forever ago").
    EXPECT_EQ(meta.accessInterval(99), meta.tick());
}

/** Page of the least-recently-used slot on @p dev, or kInvalidPage. */
PageId
lruVictim(const PageMetaTable &meta, DeviceId dev)
{
    const PageMetaTable::Slot s = meta.lruVictimSlot(dev);
    return s == PageMetaTable::kNil ? kInvalidPage : meta.pageAt(s);
}

TEST(PageMetaTable, LruOrdering)
{
    PageMetaTable meta(2);
    for (PageId p : {1, 2, 3})
        meta.mapAt(meta.touch(p), 0);
    EXPECT_EQ(lruVictim(meta, 0), 1u);
    meta.touch(1); // 1 becomes MRU
    EXPECT_EQ(lruVictim(meta, 0), 2u);
    EXPECT_EQ(meta.pagesOn(0), 3u);
    EXPECT_EQ(lruVictim(meta, 1), kInvalidPage);
}

TEST(PageMetaTable, RemapMovesBetweenLists)
{
    PageMetaTable meta(2);
    const PageMetaTable::Slot s = meta.touch(1);
    meta.mapAt(s, 0);
    meta.remapAt(s, 1);
    EXPECT_EQ(meta.placement(1), 1u);
    EXPECT_EQ(meta.pagesOn(0), 0u);
    EXPECT_EQ(meta.pagesOn(1), 1u);
}

TEST(PageMetaTableDeath, DoubleMapPanics)
{
    PageMetaTable meta(2);
    const PageMetaTable::Slot s = meta.touch(1);
    meta.mapAt(s, 0);
    EXPECT_DEATH(meta.mapAt(s, 1), "already mapped");
}

TEST(PageMetaTableDeath, RemapUnmappedPanics)
{
    PageMetaTable meta(2);
    const PageMetaTable::Slot s = meta.touch(1);
    EXPECT_DEATH(meta.remapAt(s, 1), "not mapped");
}

// --------------------------- HybridSystem ----------------------------

TEST(HybridSystem, WritePlacesOnActionDevice)
{
    HybridSystem sys(tinyConfig());
    auto r = sys.serve(0.0, req(10, 2, OpType::Write), 0);
    EXPECT_EQ(sys.placement(10), 0u);
    EXPECT_EQ(sys.placement(11), 0u);
    EXPECT_EQ(r.servedDevice, 0u);
    EXPECT_GT(r.latencyUs, 0.0);
    EXPECT_EQ(sys.device(0).usedPages(), 2u);
}

TEST(HybridSystem, FirstTouchReadMaterializesOnAction)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(20, 1, OpType::Read), 1);
    EXPECT_EQ(sys.placement(20), 1u);
    sys.serve(0.0, req(30, 1, OpType::Read), 0);
    EXPECT_EQ(sys.placement(30), 0u);
}

TEST(HybridSystem, ReadPromotesWhenActionFaster)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(5, 1, OpType::Write), 1); // on slow
    auto r = sys.serve(100.0, req(5, 1, OpType::Read), 0);
    EXPECT_TRUE(r.migrated);
    EXPECT_EQ(sys.placement(5), 0u);
    EXPECT_EQ(sys.counters().promotions, 1u);
    // The read itself was served from the slow device.
    EXPECT_EQ(r.servedDevice, 1u);
}

TEST(HybridSystem, ReadNeverDemotes)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(5, 1, OpType::Write), 0); // on fast
    auto r = sys.serve(100.0, req(5, 1, OpType::Read), 1);
    EXPECT_FALSE(r.migrated);
    EXPECT_EQ(sys.placement(5), 0u); // stays put
}

TEST(HybridSystem, WriteDemotesWhenActionSlower)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(5, 1, OpType::Write), 0);
    sys.serve(100.0, req(5, 1, OpType::Write), 1);
    EXPECT_EQ(sys.placement(5), 1u);
    EXPECT_EQ(sys.counters().demotions, 1u);
    EXPECT_EQ(sys.device(0).usedPages(), 0u);
}

TEST(HybridSystem, EvictionWhenFastFull)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/4));
    // Fill the 4-page fast device.
    sys.serve(0.0, req(0, 4, OpType::Write), 0);
    // One more fast write must evict.
    auto r = sys.serve(100.0, req(100, 2, OpType::Write), 0);
    EXPECT_TRUE(r.eviction);
    EXPECT_EQ(r.evictedPages, 2u);
    EXPECT_GT(r.evictionTimeUs, 0.0);
    EXPECT_LE(sys.device(0).usedPages(), 4u);
    // Evicted pages landed on the slow device.
    EXPECT_EQ(sys.metadata().pagesOn(1), 2u);
    EXPECT_EQ(sys.counters().evictionEvents, 1u);
}

TEST(HybridSystem, LruVictimSelectedByDefault)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/2));
    sys.serve(0.0, req(1, 1, OpType::Write), 0);
    sys.serve(1.0, req(2, 1, OpType::Write), 0);
    sys.serve(2.0, req(1, 1, OpType::Read), 0); // 1 becomes MRU
    sys.serve(3.0, req(9, 1, OpType::Write), 0);
    EXPECT_EQ(sys.placement(2), 1u); // LRU page 2 evicted
    EXPECT_EQ(sys.placement(1), 0u);
}

TEST(HybridSystem, OversizedRequestOverflowsToSlow)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/4));
    // A 6-page request cannot fit on the 4-page fast device at all.
    auto r = sys.serve(0.0, req(0, 6, OpType::Write), 0);
    EXPECT_EQ(r.servedDevice, 1u);
    EXPECT_EQ(sys.placement(0), 1u);
}

TEST(HybridSystem, RequestLargerThanRemainingCapacityEvicts)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/8));
    sys.serve(0.0, req(0, 6, OpType::Write), 0);
    auto r = sys.serve(1.0, req(100, 4, OpType::Write), 0);
    EXPECT_TRUE(r.eviction);
    EXPECT_LE(sys.device(0).usedPages(), 8u);
}

TEST(HybridSystem, TriHybridCascadeEviction)
{
    auto h = device::deviceH();
    h.capacityPages = 2;
    auto m = device::deviceM();
    m.capacityPages = 2;
    auto l = device::deviceL();
    l.capacityPages = 1024;
    HybridSystem sys({h, m, l});
    // Fill H, then M via evictions from H, then force a cascade.
    for (PageId p = 0; p < 6; p++)
        sys.serve(static_cast<double>(p), req(100 + p, 1, OpType::Write),
                  0);
    EXPECT_LE(sys.device(0).usedPages(), 2u);
    EXPECT_LE(sys.device(1).usedPages(), 2u);
    EXPECT_GE(sys.device(2).usedPages(), 2u);
}

TEST(HybridSystem, MakeConfigShapes)
{
    auto dual = makeHssConfig("H&M", 10000);
    ASSERT_EQ(dual.size(), 2u);
    EXPECT_EQ(dual[0].capacityPages, 1000u); // 10%
    EXPECT_GT(dual[1].capacityPages, 10000u);

    auto tri = makeHssConfig("H&M&L", 10000, 0.05);
    ASSERT_EQ(tri.size(), 3u);
    EXPECT_EQ(tri[0].capacityPages, 500u);   // 5%
    EXPECT_EQ(tri[1].capacityPages, 1000u);  // 10%
    EXPECT_EQ(tri[2].name, "L");

    auto triSsd = makeHssConfig("H&M&L_SSD", 10000);
    EXPECT_EQ(triSsd[2].name, "L_SSD");
}

/**
 * Invariant property: after any random request sequence, every device's
 * occupancy equals the number of pages mapped to it, and fast occupancy
 * never exceeds capacity.
 */
TEST(HybridSystem, OccupancyMatchesResidencyUnderRandomLoad)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/16, /*slowPages=*/4096));
    Pcg32 rng(123);
    SimTime now = 0.0;
    for (int i = 0; i < 3000; i++) {
        PageId page = rng.nextBounded(300);
        auto size = static_cast<std::uint32_t>(1 + rng.nextBounded(8));
        OpType op = rng.nextBool(0.5) ? OpType::Read : OpType::Write;
        DeviceId action = rng.nextBounded(2);
        now += rng.nextDouble(0.0, 50.0);
        sys.serve(now, {now, page, size, op}, action);

        ASSERT_EQ(sys.device(0).usedPages(), sys.metadata().pagesOn(0));
        ASSERT_EQ(sys.device(1).usedPages(), sys.metadata().pagesOn(1));
        ASSERT_LE(sys.device(0).usedPages(),
                  sys.device(0).spec().capacityPages);
    }
    EXPECT_GT(sys.counters().evictedPages, 0u);
}

TEST(HybridSystem, ResetRestoresPristine)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(1, 1, OpType::Write), 0);
    sys.reset();
    EXPECT_EQ(sys.counters().requests, 0u);
    EXPECT_EQ(sys.device(0).usedPages(), 0u);
    EXPECT_EQ(sys.placement(1), kNoDevice);
}

TEST(HybridSystem, FreeFractionTracksOccupancy)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/10));
    EXPECT_DOUBLE_EQ(sys.freeFraction(0), 1.0);
    sys.serve(0.0, req(0, 5, OpType::Write), 0);
    EXPECT_DOUBLE_EQ(sys.freeFraction(0), 0.5);
}

// ------------------ PageMetaTable vs reference table ------------------

/**
 * Reference metadata table for the differential test: the original
 * unordered_map + per-device std::list implementation of the
 * PageMetaTable interface, with the same observable semantics.
 */
class LegacyPageMetaTable
{
  public:
    explicit LegacyPageMetaTable(std::uint32_t numDevices)
        : lru_(numDevices)
    {
    }

    DeviceId placement(PageId page) const
    {
        auto it = meta_.find(page);
        return it == meta_.end() ? kNoDevice : it->second.placement;
    }

    std::uint64_t accessCount(PageId page) const
    {
        auto it = meta_.find(page);
        return it == meta_.end() ? 0 : it->second.accessCount;
    }

    std::uint64_t accessInterval(PageId page) const
    {
        auto it = meta_.find(page);
        if (it == meta_.end() || it->second.accessCount == 0)
            return tick_;
        return tick_ - it->second.lastAccessTick;
    }

    void touch(PageId page)
    {
        tick_++;
        auto &m = meta_[page];
        m.accessCount++;
        m.lastAccessTick = tick_;
        if (m.placement != kNoDevice) {
            // Refresh recency: move to MRU position.
            auto &list = lru_[m.placement];
            list.erase(m.lruIt);
            list.push_front(page);
            m.lruIt = list.begin();
        }
    }

    void map(PageId page, DeviceId dev)
    {
        auto &m = meta_[page];
        m.placement = dev;
        lru_[dev].push_front(page);
        m.lruIt = lru_[dev].begin();
    }

    void remap(PageId page, DeviceId dev)
    {
        auto &m = meta_.at(page);
        lru_[m.placement].erase(m.lruIt);
        m.placement = dev;
        lru_[dev].push_front(page);
        m.lruIt = lru_[dev].begin();
    }

    PageId lruVictim(DeviceId dev) const
    {
        const auto &list = lru_.at(dev);
        return list.empty() ? kInvalidPage : list.back();
    }

    std::uint64_t pagesOn(DeviceId dev) const { return lru_.at(dev).size(); }

    std::vector<PageId> residency(DeviceId dev) const
    {
        const auto &list = lru_.at(dev);
        return std::vector<PageId>(list.rbegin(), list.rend());
    }

    std::uint64_t tick() const { return tick_; }
    std::uint64_t mappedPages() const { return meta_.size(); }

  private:
    struct PageMeta
    {
        DeviceId placement = kNoDevice;
        std::uint64_t accessCount = 0;
        std::uint64_t lastAccessTick = 0;
        /** Position in the owning device's LRU list. */
        std::list<PageId>::iterator lruIt;
    };

    std::uint64_t tick_ = 0;
    std::unordered_map<PageId, PageMeta> meta_;
    /** Per-device recency lists: front = MRU, back = LRU. */
    std::vector<std::list<PageId>> lru_;
};

/**
 * Randomized differential test: the flat open-addressed table and the
 * map+list reference must agree on every observable — placement,
 * counters, intervals, per-device populations, and crucially the LRU
 * victim of both devices — after every operation of a mixed
 * map/access/migrate stream.
 */
TEST(PageMetaTable, DifferentialAgainstLegacyOracle)
{
    // Tiny initial capacity so the stream crosses several rehashes
    // mid-run (growth must preserve chain order exactly).
    PageMetaTable flat(3, /*initialSlots=*/16);
    LegacyPageMetaTable legacy(3);
    Pcg32 rng(0xD1FF);

    for (int i = 0; i < 20000; i++) {
        const PageId page = rng.nextBounded(700);
        const auto op = rng.nextBounded(10);
        if (op < 6) {
            flat.touch(page);
            legacy.touch(page);
        } else if (op < 8) {
            // First-placement: serve() maps a page only in the slot
            // its touch returned, so the stream touches before mapping.
            const PageMetaTable::Slot slot = flat.touch(page);
            legacy.touch(page);
            if (legacy.placement(page) == kNoDevice) {
                const DeviceId dev = rng.nextBounded(3);
                flat.mapAt(slot, dev);
                legacy.map(page, dev);
            }
        } else {
            // Evict-style move: migrate the LRU victim of a random
            // device (the serve path's eviction pattern).
            const DeviceId dev = rng.nextBounded(3);
            const PageId victim = legacy.lruVictim(dev);
            const PageMetaTable::Slot slot = flat.lruVictimSlot(dev);
            ASSERT_EQ(lruVictim(flat, dev), victim);
            if (victim != kInvalidPage) {
                const DeviceId dst = (dev + 1) % 3;
                flat.remapAt(slot, dst);
                legacy.remap(victim, dst);
            }
        }

        ASSERT_EQ(flat.checkInvariants(), "") << "op " << i;
        ASSERT_EQ(flat.tick(), legacy.tick());
        ASSERT_EQ(flat.mappedPages(), legacy.mappedPages());
        ASSERT_EQ(flat.placement(page), legacy.placement(page));
        ASSERT_EQ(flat.accessCount(page), legacy.accessCount(page));
        ASSERT_EQ(flat.accessInterval(page), legacy.accessInterval(page));
        for (DeviceId d = 0; d < 3; d++) {
            ASSERT_EQ(flat.pagesOn(d), legacy.pagesOn(d));
            ASSERT_EQ(lruVictim(flat, d), legacy.lruVictim(d));
        }
    }
    // Full residency-order equality (cold-first) at the end.
    for (DeviceId d = 0; d < 3; d++)
        EXPECT_EQ(flat.residency(d), legacy.residency(d));
}

TEST(PageMetaTable, GrowthPreservesStateAcrossRehash)
{
    PageMetaTable meta(2, /*initialSlots=*/16);
    const std::uint64_t startCap = meta.slotCapacity();

    // Map enough pages to force several doublings.
    for (PageId p = 0; p < 500; p++)
        meta.mapAt(meta.touch(p), static_cast<DeviceId>(p % 2));
    EXPECT_GT(meta.slotCapacity(), startCap);
    EXPECT_LE(meta.loadFactor(), 0.6);

    // Everything survived the rehashes: counters, placement, and the
    // exact LRU order (page 0 is coldest on device 0).
    EXPECT_EQ(meta.mappedPages(), 500u);
    for (PageId p = 0; p < 500; p++) {
        EXPECT_EQ(meta.placement(p), p % 2);
        EXPECT_EQ(meta.accessCount(p), 1u);
    }
    EXPECT_EQ(lruVictim(meta, 0), 0u);
    EXPECT_EQ(lruVictim(meta, 1), 1u);
}

TEST(PageMetaTable, TickMonotonicityAndIntervalSemantics)
{
    PageMetaTable meta(2);
    std::uint64_t lastTick = meta.tick();
    Pcg32 rng(0x71C);
    for (int i = 0; i < 1000; i++) {
        const PageId p = rng.nextBounded(50);
        const PageMetaTable::Slot s = meta.touch(p);
        // The tick advances by exactly one per page access, never by
        // map/remap/queries.
        ASSERT_EQ(meta.tick(), lastTick + 1);
        lastTick = meta.tick();
        ASSERT_EQ(meta.accessInterval(p), 0u);
        if (meta.placement(p) == kNoDevice && (i & 3) == 0)
            meta.mapAt(s, 0);
        ASSERT_EQ(meta.tick(), lastTick);
    }
    // Unseen pages read "forever ago" == current tick.
    EXPECT_EQ(meta.accessInterval(99999), meta.tick());
}

/**
 * Slot stability across growth: serve() resolves each page's metadata
 * slot once, so the table must grow before the request's touch loop,
 * never inside it. A system whose table starts at 16 slots serves
 * multi-page requests whose first touches cross the grow threshold in
 * the middle of a request; a system presized for the trace serves the
 * same requests. Every outcome, counter and LRU order must agree, and
 * the growing table must pass its invariant check after every serve.
 */
TEST(HybridSystem, GrowingTableServesLikePresized)
{
    constexpr PageId kUniverse = 3000;
    HybridSystem grown(tinyConfig(/*fastPages=*/48, /*slowPages=*/8192),
                       7, /*expectedPages=*/1);
    HybridSystem presized(tinyConfig(/*fastPages=*/48, /*slowPages=*/8192),
                          7, /*expectedPages=*/kUniverse);
    ASSERT_EQ(grown.metadata().slotCapacity(), 16u);
    const std::uint64_t presizedSlots = presized.metadata().slotCapacity();

    Pcg32 rng(0x5107);
    PageId frontier = 0;
    std::uint64_t midRequestGrowths = 0;
    for (int i = 0; i < 4000; i++) {
        // Mostly fresh multi-page extents at the frontier (so first
        // touches keep crossing the threshold), else reuse of old ones.
        const auto size = static_cast<std::uint32_t>(2 + rng.nextBounded(11));
        PageId page;
        if (frontier + size < kUniverse && rng.nextBounded(3) != 0) {
            page = frontier;
            frontier += size;
        } else {
            page = rng.nextBounded(static_cast<std::uint32_t>(
                std::max<PageId>(frontier, 1)));
            if (page + size > kUniverse)
                page = kUniverse - size;
        }
        const OpType op =
            rng.nextBounded(3) == 0 ? OpType::Write : OpType::Read;
        const auto action = static_cast<DeviceId>(rng.nextBounded(2));
        const SimTime now = 10.0 * i;
        const trace::Request r = req(page, size, op, now);

        const std::uint64_t slotsBefore = grown.metadata().slotCapacity();
        const std::uint64_t pagesBefore = grown.metadata().mappedPages();
        const ServeResult a = grown.serve(now, r, action);
        const ServeResult b = presized.serve(now, r, action);
        if (grown.metadata().slotCapacity() != slotsBefore &&
            grown.metadata().mappedPages() - pagesBefore >= 2)
            midRequestGrowths++;

        ASSERT_EQ(grown.metadata().checkInvariants(), "") << "request " << i;
        ASSERT_EQ(presized.metadata().checkInvariants(), "")
            << "request " << i;
        ASSERT_EQ(a.latencyUs, b.latencyUs) << "request " << i;
        ASSERT_EQ(a.finishUs, b.finishUs);
        ASSERT_EQ(a.servedDevice, b.servedDevice);
        ASSERT_EQ(a.eviction, b.eviction);
        ASSERT_EQ(a.evictionTimeUs, b.evictionTimeUs);
        ASSERT_EQ(a.evictedPages, b.evictedPages);
        ASSERT_EQ(a.migrated, b.migrated);
        ASSERT_EQ(a.placedDevice, b.placedDevice);
        ASSERT_EQ(a.redirected, b.redirected);
    }
    // The stream really grew the table through requests that added
    // several pages at once, and the presized table never grew.
    EXPECT_GE(midRequestGrowths, 5u);
    EXPECT_GT(grown.metadata().slotCapacity(), 16u);
    EXPECT_EQ(presized.metadata().slotCapacity(), presizedSlots);

    const HssCounters &ca = grown.counters();
    const HssCounters &cb = presized.counters();
    EXPECT_EQ(ca.requests, cb.requests);
    EXPECT_EQ(ca.evictionEvents, cb.evictionEvents);
    EXPECT_EQ(ca.evictedPages, cb.evictedPages);
    EXPECT_EQ(ca.promotions, cb.promotions);
    EXPECT_EQ(ca.demotions, cb.demotions);
    EXPECT_EQ(ca.placements, cb.placements);
    EXPECT_GT(ca.evictedPages, 0u);
    EXPECT_GT(ca.promotions, 0u);
    for (DeviceId d = 0; d < 2; d++)
        EXPECT_EQ(grown.metadata().residency(d),
                  presized.metadata().residency(d));

    // A real trace: Oracle on proj_3 under H&M, through the simulator's
    // request stepper. Its growing table reaches the load limit with
    // the last absent page of a request and then re-touches resident
    // pages, which must not grow the table (request 25085 once
    // promoted one page too many).
    const trace::Trace t = trace::makeWorkload("proj_3", 40000, 4);
    const auto specs = makeHssConfig("H&M", t.uniquePages());
    HybridSystem growing(specs, 42, /*expectedPages=*/0);
    HybridSystem sized(specs, 42, t.uniquePages());
    policies::OraclePolicy growingOracle, sizedOracle;
    growingOracle.prepare(t, growing);
    sizedOracle.prepare(t, sized);
    sim::RequestStepper growingSteps(growing, growingOracle, {}, t.size());
    sim::RequestStepper sizedSteps(sized, sizedOracle, {}, t.size());
    for (std::size_t i = 0; i < t.size(); i++) {
        growingSteps.step(t[i]);
        sizedSteps.step(t[i]);
        ASSERT_EQ(growing.metadata().checkInvariants(), "")
            << "request " << i;
        const HssCounters &g = growing.counters();
        const HssCounters &z = sized.counters();
        ASSERT_EQ(g.promotions, z.promotions) << "request " << i;
        ASSERT_EQ(g.evictedPages, z.evictedPages) << "request " << i;
        ASSERT_EQ(g.placements, z.placements) << "request " << i;
    }
    EXPECT_GT(growing.metadata().slotCapacity(),
              PageMetaTable::kDefaultSlots);
    const sim::RunMetrics mg = growingSteps.finish();
    const sim::RunMetrics mz = sizedSteps.finish();
    EXPECT_EQ(mg.avgLatencyUs, mz.avgLatencyUs);
    for (DeviceId d = 0; d < 2; d++)
        EXPECT_EQ(growing.metadata().residency(d),
                  sized.metadata().residency(d));
}

/** Touching a resident page never grows the table, even with the table
 *  exactly at its load limit: the slots a request resolved stay valid. */
TEST(PageMetaTable, TouchingResidentPageAtLoadLimitKeepsSlots)
{
    PageMetaTable meta(2, /*initialSlots=*/16);
    // 16 slots at a 0.6 load limit hold 9 pages.
    std::vector<PageMetaTable::Slot> slots;
    for (PageId p = 0; p < 9; p++) {
        slots.push_back(meta.touch(p));
        meta.mapAt(slots.back(), static_cast<DeviceId>(p % 2));
    }
    ASSERT_EQ(meta.slotCapacity(), 16u);
    for (int round = 0; round < 3; round++)
        for (PageId p = 0; p < 9; p++) {
            ASSERT_EQ(meta.touch(p), slots[p]) << "page " << p;
            ASSERT_EQ(meta.slotCapacity(), 16u) << "page " << p;
        }
    ASSERT_EQ(meta.checkInvariants(), "");
    // The next absent page grows the table, keeping every page.
    meta.touch(9);
    EXPECT_EQ(meta.slotCapacity(), 32u);
    EXPECT_EQ(meta.mappedPages(), 10u);
    EXPECT_EQ(meta.accessCount(0), 4u);
    EXPECT_EQ(meta.checkInvariants(), "");
}

TEST(MakeHssConfig, RejectsUnknownShorthandListingValidNames)
{
    // The shorthand is user input (CLI --config, scenario files): a
    // typo must throw a catchable error that names every valid
    // configuration, not exit the process.
    try {
        makeHssConfig("H&X", 10000);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("H&X"), std::string::npos) << msg;
        for (const char *valid :
             {"H&M", "H&L", "H&M&L", "H&M&L_SSD", "H&M&L_SSD&L"})
            EXPECT_NE(msg.find(valid), std::string::npos)
                << msg << " should list " << valid;
    }
    EXPECT_THROW(makeHssConfig("", 10000), std::invalid_argument);
    EXPECT_THROW(makeHssConfig("h&m", 10000), std::invalid_argument);
}

} // namespace
} // namespace sibyl::hss
