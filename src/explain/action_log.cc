#include "explain/action_log.hh"

#include <algorithm>

namespace sibyl::explain
{

ActionLog::ActionLog(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity))
{
    records_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
ActionLog::record(DecisionRecord rec)
{
    if (records_.size() < capacity_) {
        records_.push_back(std::move(rec));
    } else {
        records_[head_] = std::move(rec);
        head_ = (head_ + 1) % capacity_;
        wrapped_ = true;
    }
}

PreferenceStats
ActionLog::overallPreference() const
{
    PreferenceStats s;
    for (const auto &r : records_) {
        s.decisions++;
        if (r.action == 0)
            s.fastPlacements++;
    }
    return s;
}

std::vector<PreferenceStats>
ActionLog::preferenceByFeature(std::size_t featureIndex,
                               std::size_t bins) const
{
    std::vector<PreferenceStats> out(std::max<std::size_t>(1, bins));
    for (const auto &r : records_) {
        if (featureIndex >= r.state.size())
            continue;
        const double v = std::clamp(
            static_cast<double>(r.state[featureIndex]), 0.0, 1.0);
        auto bin = static_cast<std::size_t>(
            v * static_cast<double>(out.size()));
        bin = std::min(bin, out.size() - 1);
        out[bin].decisions++;
        if (r.action == 0)
            out[bin].fastPlacements++;
    }
    return out;
}

double
ActionLog::evictionFraction() const
{
    if (records_.empty())
        return 0.0;
    std::uint64_t evictions = 0;
    for (const auto &r : records_)
        evictions += r.eviction ? 1 : 0;
    return static_cast<double>(evictions) /
           static_cast<double>(records_.size());
}

std::vector<PreferenceStats>
ActionLog::preferenceTimeline(std::size_t windows) const
{
    std::vector<PreferenceStats> out(std::max<std::size_t>(1, windows));
    if (records_.empty())
        return out;
    // Chronological order: when wrapped, head_ marks the oldest entry.
    const std::size_t n = records_.size();
    for (std::size_t i = 0; i < n; i++) {
        const std::size_t idx = wrapped_ ? (head_ + i) % n : i;
        auto w = i * out.size() / n;
        out[w].decisions++;
        if (records_[idx].action == 0)
            out[w].fastPlacements++;
    }
    return out;
}

void
ActionLog::clear()
{
    records_.clear();
    head_ = 0;
    wrapped_ = false;
}

} // namespace sibyl::explain
