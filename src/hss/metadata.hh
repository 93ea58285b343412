/**
 * @file
 * Per-page metadata table of the storage management layer.
 *
 * Tracks, for every logical page: where it lives, how often it has been
 * accessed (cnt_t), and how long ago it was last accessed in units of
 * page accesses (intr_t) — the two reuse features of Sibyl's state
 * vector (Table 1) — plus an LRU ordering per device used for default
 * eviction-victim selection.
 *
 * The table is a single open-addressed slot array. Each slot embeds the
 * page's counters *and* its LRU links as `uint32_t` slot indices, so
 * one probe answers every per-request metadata query with at most one
 * cache miss, and an LRU refresh is three index stores instead of a
 * list-node splice. Pages are never erased individually (only remapped
 * or bulk reset), so the probe sequences need no tombstones.
 * tests/test_hss.cc checks every observable — eviction (LRU) order,
 * tick semantics, counters — against a map+list reference table with a
 * randomized differential stream.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sibyl::hss
{

/**
 * Mapping table plus recency bookkeeping: flat open addressing with an
 * intrusive, index-linked LRU per device (see file header).
 *
 * The global tick increments once per *page access*; the paper defines
 * the access interval of a page as the number of page accesses between
 * two consecutive references to it.
 */
class PageMetaTable
{
  public:
    /** Index of a page's slot. Stable until the table grows; the
     *  slot-addressed calls below let one request resolve each of its
     *  pages once (see HybridSystem::serve). */
    using Slot = std::uint32_t;

    /** Sentinel slot index: no slot (also terminates LRU chains). */
    static constexpr Slot kNil = 0xFFFFFFFFu;

    /** Slot count of a table not sized for its trace; it grows on
     *  demand. */
    static constexpr std::uint64_t kDefaultSlots = 1 << 13;

    /** @p initialSlots is rounded up to a power of two (minimum 16). */
    explicit PageMetaTable(std::uint32_t numDevices,
                           std::uint64_t initialSlots = kDefaultSlots);

    /** Slot count that holds @p pages pages without growing. */
    static std::uint64_t slotsFor(std::uint64_t pages);

    /** Device the page lives on, or kNoDevice. */
    DeviceId placement(PageId page) const;

    /** Total accesses to the page so far (0 if unseen). */
    std::uint64_t accessCount(PageId page) const;

    /**
     * Page accesses since this page was last referenced; returns the
     * current tick for pages never seen (i.e., "infinite" interval).
     */
    std::uint64_t accessInterval(PageId page) const;

    /**
     * Grow now, if needed, so that touching the @p n pages from
     * @p first cannot grow the table. The slots those touches return
     * stay valid until the table next grows (a touch() of a page not
     * yet in it).
     */
    void reserveFor(PageId first, std::uint32_t n);

    /** Record one access to @p page (bumps count, tick, and recency)
     *  and return its slot. */
    Slot touch(PageId page);

    // --- Slot-addressed calls; @p slot must come from touch() or
    //     lruVictimSlot() with no growth since.

    PageId pageAt(Slot slot) const { return slots_[slot].page; }
    DeviceId placementAt(Slot slot) const { return slots_[slot].placement; }

    /** Map the unmapped page in @p slot onto @p dev. */
    void mapAt(Slot slot, DeviceId dev);

    /** Move the mapped page in @p slot to @p dev (migration). */
    void remapAt(Slot slot, DeviceId dev);

    /** Slot of the least-recently-used page on @p dev, or kNil if
     *  @p dev is empty. */
    Slot lruVictimSlot(DeviceId dev) const;

    /** Number of pages mapped to @p dev. */
    std::uint64_t pagesOn(DeviceId dev) const;

    /** Pages currently resident on @p dev, LRU order (cold first).
     *  Materialized by walking the chain — diagnostics/tests only. */
    std::vector<PageId> residency(DeviceId dev) const;

    std::uint64_t tick() const { return tick_; }
    std::uint64_t mappedPages() const { return size_; }

    /** Current slot-array size (tests check growth with it). */
    std::uint64_t slotCapacity() const { return slots_.size(); }

    /** Occupied slots / slot capacity. */
    double loadFactor() const
    {
        return slots_.empty()
            ? 0.0
            : static_cast<double>(size_) /
                  static_cast<double>(slots_.size());
    }

    /**
     * Check the table's structure: every device's LRU chain is closed
     * with agreeing prev/next links, its length equals pagesOn(dev),
     * every placed slot sits on exactly its own device's chain, and
     * mappedPages() equals the occupied slots. Returns "" when all
     * hold, else a description of the first violation. O(slots).
     */
    std::string checkInvariants() const;

    void reset();

  private:
    /** Occupancy fraction that triggers doubling. Probe clusters stay
     *  short below ~0.7 for linear probing. */
    static constexpr double kMaxLoad = 0.60;

    struct Entry
    {
        PageId page = kInvalidPage; ///< kInvalidPage marks an empty slot
        std::uint64_t accessCount = 0;
        std::uint64_t lastAccessTick = 0;
        Slot lruPrev = kNil; ///< toward MRU
        Slot lruNext = kNil; ///< toward LRU
        DeviceId placement = kNoDevice;
    };

    static std::uint64_t hashPage(PageId page);

    /** True when @p entries occupied slots stay within kMaxLoad. */
    bool fits(std::uint64_t entries) const
    {
        return static_cast<double>(entries) <=
               kMaxLoad * static_cast<double>(slots_.size());
    }

    /** Probe for @p page; returns its slot index or kNil. */
    Slot find(PageId page) const;

    /** Probe for @p page, claiming (and growing, if needed) an empty
     *  slot when absent. */
    Slot findOrCreate(PageId page);

    /** Double the slot array, preserving every LRU chain's order. */
    void grow();

    /** Unlink slot @p idx from its device's LRU chain. */
    void unlink(Slot idx);

    /** Link slot @p idx at the MRU end of @p dev's chain. */
    void pushFront(Slot idx, DeviceId dev);

    std::uint32_t numDevices_;
    std::uint64_t tick_ = 0;
    std::uint64_t size_ = 0;    ///< occupied slots (pages ever seen)
    std::uint64_t mask_ = 0;    ///< slots_.size() - 1 (power of two)
    std::vector<Entry> slots_;
    std::vector<Slot> heads_;           ///< per-device MRU slot index
    std::vector<Slot> tails_;           ///< per-device LRU slot index
    std::vector<std::uint64_t> counts_; ///< per-device resident pages
};

} // namespace sibyl::hss
