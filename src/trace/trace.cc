#include "trace/trace.hh"

#include <algorithm>
#include <unordered_set>

namespace sibyl::trace
{

std::uint64_t
Trace::uniquePages() const
{
    std::uint64_t count = uniquePages_.get();
    if (count != CountMemo::kUnknown)
        return count;

    std::unordered_set<PageId> pages;
    for (const auto &r : requests_)
        for (PageId p = r.page; p < r.endPage(); p++)
            pages.insert(p);
    count = pages.size();
    uniquePages_.set(count);
    return count;
}

std::uint64_t
Trace::workingSetBytes() const
{
    return uniquePages() * kPageSize;
}

PageId
Trace::addressSpacePages() const
{
    PageId mx = 0;
    for (const auto &r : requests_)
        mx = std::max(mx, r.endPage());
    return mx;
}

void
Trace::sortByTime()
{
    std::stable_sort(requests_.begin(), requests_.end(),
                     [](const Request &a, const Request &b) {
                         return a.timestamp < b.timestamp;
                     });
}

void
Trace::merge(const Trace &other, SimTime offset)
{
    uniquePages_.clear();
    requests_.reserve(requests_.size() + other.size());
    for (const auto &r : other) {
        Request shifted = r;
        shifted.timestamp += offset;
        requests_.push_back(shifted);
    }
    sortByTime();
}

Trace
Trace::prefix(std::size_t n) const
{
    Trace out(name_ + "_prefix");
    n = std::min(n, requests_.size());
    out.reserve(n);
    for (std::size_t i = 0; i < n; i++)
        out.add(requests_[i]);
    return out;
}

void
Trace::compressTime(double factor)
{
    if (factor <= 0.0)
        return;
    for (auto &r : requests_)
        r.timestamp /= factor;
}

} // namespace sibyl::trace
