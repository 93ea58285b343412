#include "hss/metadata.hh"

#include <sstream>

#include "common/logging.hh"

namespace sibyl::hss
{

namespace
{

std::uint64_t
roundUpPow2(std::uint64_t v)
{
    std::uint64_t p = 16;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

PageMetaTable::PageMetaTable(std::uint32_t numDevices,
                             std::uint64_t initialSlots)
    : numDevices_(numDevices),
      heads_(numDevices, kNil),
      tails_(numDevices, kNil),
      counts_(numDevices, 0)
{
    if (numDevices == 0)
        fatal("PageMetaTable: need at least one device");
    const std::uint64_t slots = roundUpPow2(initialSlots);
    slots_.assign(slots, Entry());
    mask_ = slots - 1;
}

std::uint64_t
PageMetaTable::slotsFor(std::uint64_t pages)
{
    std::uint64_t slots = roundUpPow2(pages);
    while (static_cast<double>(pages) >
           kMaxLoad * static_cast<double>(slots))
        slots <<= 1;
    return slots;
}

std::uint64_t
PageMetaTable::hashPage(PageId page)
{
    // splitmix64 finalizer: page ids are near-contiguous, so full
    // avalanche keeps linear-probe clusters short.
    std::uint64_t x = page + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

PageMetaTable::Slot
PageMetaTable::find(PageId page) const
{
    std::uint64_t i = hashPage(page) & mask_;
    while (true) {
        const Entry &s = slots_[i];
        if (s.page == page)
            return static_cast<std::uint32_t>(i);
        if (s.page == kInvalidPage)
            return kNil;
        i = (i + 1) & mask_;
    }
}

PageMetaTable::Slot
PageMetaTable::findOrCreate(PageId page)
{
    std::uint64_t i = hashPage(page) & mask_;
    while (slots_[i].page != page) {
        if (slots_[i].page == kInvalidPage) {
            // Grow only to insert: touching a resident page must keep
            // every slot a request already resolved (reserveFor()
            // counts only the absent pages).
            if (!fits(size_ + 1)) {
                grow();
                i = hashPage(page) & mask_;
                while (slots_[i].page != kInvalidPage)
                    i = (i + 1) & mask_;
            }
            slots_[i].page = page;
            size_++;
            break;
        }
        i = (i + 1) & mask_;
    }
    return static_cast<std::uint32_t>(i);
}

void
PageMetaTable::grow()
{
    const std::uint64_t newSize = slots_.size() * 2;
    std::vector<Entry> old;
    old.swap(slots_);
    slots_.assign(newSize, Entry());
    mask_ = newSize - 1;

    // Re-insert every entry, remembering old -> new slot positions so
    // the intrusive LRU links (and the per-device head/tail anchors)
    // can be translated without disturbing chain order.
    std::vector<Slot> remap(old.size(), kNil);
    for (std::size_t oi = 0; oi < old.size(); oi++) {
        if (old[oi].page == kInvalidPage)
            continue;
        std::uint64_t i = hashPage(old[oi].page) & mask_;
        while (slots_[i].page != kInvalidPage)
            i = (i + 1) & mask_;
        slots_[i] = old[oi];
        remap[oi] = static_cast<Slot>(i);
    }
    for (auto &s : slots_) {
        if (s.page == kInvalidPage)
            continue;
        if (s.lruPrev != kNil)
            s.lruPrev = remap[s.lruPrev];
        if (s.lruNext != kNil)
            s.lruNext = remap[s.lruNext];
    }
    for (std::uint32_t d = 0; d < numDevices_; d++) {
        if (heads_[d] != kNil)
            heads_[d] = remap[heads_[d]];
        if (tails_[d] != kNil)
            tails_[d] = remap[tails_[d]];
    }
}

void
PageMetaTable::unlink(Slot idx)
{
    Entry &s = slots_[idx];
    const DeviceId dev = s.placement;
    if (s.lruPrev != kNil)
        slots_[s.lruPrev].lruNext = s.lruNext;
    else
        heads_[dev] = s.lruNext;
    if (s.lruNext != kNil)
        slots_[s.lruNext].lruPrev = s.lruPrev;
    else
        tails_[dev] = s.lruPrev;
    s.lruPrev = kNil;
    s.lruNext = kNil;
}

void
PageMetaTable::pushFront(Slot idx, DeviceId dev)
{
    Entry &s = slots_[idx];
    s.lruPrev = kNil;
    s.lruNext = heads_[dev];
    if (heads_[dev] != kNil)
        slots_[heads_[dev]].lruPrev = idx;
    heads_[dev] = idx;
    if (tails_[dev] == kNil)
        tails_[dev] = idx;
}

DeviceId
PageMetaTable::placement(PageId page) const
{
    const Slot i = find(page);
    return i == kNil ? kNoDevice : slots_[i].placement;
}

std::uint64_t
PageMetaTable::accessCount(PageId page) const
{
    const Slot i = find(page);
    return i == kNil ? 0 : slots_[i].accessCount;
}

std::uint64_t
PageMetaTable::accessInterval(PageId page) const
{
    const Slot i = find(page);
    if (i == kNil || slots_[i].accessCount == 0)
        return tick_;
    return tick_ - slots_[i].lastAccessTick;
}

void
PageMetaTable::reserveFor(PageId first, std::uint32_t n)
{
    if (fits(size_ + n))
        return;
    // Near the load limit: count only the pages not in the table yet,
    // so re-touching resident pages never doubles a presized table.
    std::uint64_t absent = 0;
    for (PageId p = first; p < first + n; p++)
        absent += find(p) == kNil ? 1 : 0;
    while (!fits(size_ + absent))
        grow();
}

PageMetaTable::Slot
PageMetaTable::touch(PageId page)
{
    tick_++;
    const Slot i = findOrCreate(page);
    Entry &s = slots_[i];
    s.accessCount++;
    s.lastAccessTick = tick_;
    if (s.placement != kNoDevice && heads_[s.placement] != i) {
        // Refresh recency: move to MRU position. (Already-MRU pages
        // skip the relink; the legacy splice-to-front is order-
        // equivalent for that case.)
        const DeviceId dev = s.placement;
        unlink(i);
        pushFront(i, dev);
    }
    return i;
}

void
PageMetaTable::mapAt(Slot slot, DeviceId dev)
{
    if (dev >= numDevices_)
        panic("PageMetaTable::mapAt: bad device id");
    Entry &s = slots_[slot];
    if (s.placement != kNoDevice)
        panic("PageMetaTable::mapAt: page already mapped");
    s.placement = dev;
    pushFront(slot, dev);
    counts_[dev]++;
}

void
PageMetaTable::remapAt(Slot slot, DeviceId dev)
{
    if (dev >= numDevices_)
        panic("PageMetaTable::remapAt: bad device id");
    Entry &s = slots_[slot];
    if (s.placement == kNoDevice)
        panic("PageMetaTable::remapAt: page not mapped");
    counts_[s.placement]--;
    unlink(slot);
    s.placement = dev;
    pushFront(slot, dev);
    counts_[dev]++;
}

PageMetaTable::Slot
PageMetaTable::lruVictimSlot(DeviceId dev) const
{
    if (dev >= numDevices_)
        panic("PageMetaTable::lruVictimSlot: bad device id");
    return tails_[dev];
}

std::uint64_t
PageMetaTable::pagesOn(DeviceId dev) const
{
    if (dev >= numDevices_)
        panic("PageMetaTable::pagesOn: bad device id");
    return counts_[dev];
}

std::vector<PageId>
PageMetaTable::residency(DeviceId dev) const
{
    if (dev >= numDevices_)
        panic("PageMetaTable::residency: bad device id");
    std::vector<PageId> out;
    out.reserve(counts_[dev]);
    for (Slot i = tails_[dev]; i != kNil; i = slots_[i].lruPrev)
        out.push_back(slots_[i].page);
    return out;
}

std::string
PageMetaTable::checkInvariants() const
{
    const auto fail = [](const auto &...parts) {
        std::ostringstream err;
        (err << ... << parts);
        return err.str();
    };

    std::uint64_t occupied = 0;
    std::uint64_t placed = 0;
    for (const Entry &s : slots_) {
        if (s.page == kInvalidPage)
            continue;
        occupied++;
        if (s.placement == kNoDevice &&
            (s.lruPrev != kNil || s.lruNext != kNil))
            return fail("unplaced page ", s.page, " has LRU links");
        if (s.placement != kNoDevice && s.placement >= numDevices_)
            return fail("page ", s.page, " on bad device ", s.placement);
        placed += s.placement != kNoDevice ? 1 : 0;
    }
    if (occupied != size_)
        return fail("mappedPages() ", size_, " != ", occupied,
                    " occupied slots");

    // Walk each chain MRU -> LRU. A chain longer than the placed pages
    // has a cycle; summed lengths equal to the placed pages, with each
    // member on its own device, put every placed slot on exactly one
    // chain.
    std::uint64_t chained = 0;
    for (DeviceId d = 0; d < numDevices_; d++) {
        std::uint64_t len = 0;
        Slot prev = kNil;
        for (Slot i = heads_[d]; i != kNil; i = slots_[i].lruNext) {
            if (i > mask_ || slots_[i].page == kInvalidPage)
                return fail("device ", d, " chain reaches empty slot ", i);
            if (slots_[i].placement != d)
                return fail("page ", slots_[i].page, " placed on ",
                            slots_[i].placement, " sits on device ", d,
                            "'s chain");
            if (slots_[i].lruPrev != prev)
                return fail("page ", slots_[i].page,
                            " prev link disagrees on device ", d);
            if (++len > placed)
                return fail("device ", d, " chain does not close");
            prev = i;
        }
        if (tails_[d] != prev)
            return fail("device ", d, " tail is not the chain's end");
        if (len != counts_[d])
            return fail("device ", d, " chain holds ", len,
                        " pages, pagesOn() says ", counts_[d]);
        chained += len;
    }
    if (chained != placed)
        return fail(chained, " chained pages != ", placed, " placed pages");
    return "";
}

void
PageMetaTable::reset()
{
    tick_ = 0;
    size_ = 0;
    // Keep the slot capacity: reset() precedes a rerun over the same
    // working set, so re-growing would only repeat rehash work.
    for (auto &s : slots_)
        s = Entry();
    for (std::uint32_t d = 0; d < numDevices_; d++) {
        heads_[d] = kNil;
        tails_[d] = kNil;
        counts_[d] = 0;
    }
}

} // namespace sibyl::hss
