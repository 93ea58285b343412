#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sibyl
{

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    count_++;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double delta = other.mean_ - mean_;
    std::uint64_t n = count_ + other.count_;
    m2_ += other.m2_ + delta * delta *
        (static_cast<double>(count_) * static_cast<double>(other.count_)) /
        static_cast<double>(n);
    mean_ = (mean_ * static_cast<double>(count_) +
             other.mean_ * static_cast<double>(other.count_)) /
        static_cast<double>(n);
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ = n;
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
RunningStat::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::min() const
{
    return count_ ? min_ : 0.0;
}

double
RunningStat::max() const
{
    return count_ ? max_ : 0.0;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    if (bins == 0 || hi <= lo)
        throw std::invalid_argument("Histogram: bad range or bin count");
    width_ = (hi - lo) / static_cast<double>(bins);
}

void
Histogram::add(double x)
{
    total_++;
    // NaN fails every range test below, and casting it to an index is
    // undefined behavior — bucket it as overflow explicitly.
    if (std::isnan(x)) {
        overflow_++;
        return;
    }
    if (finite_ == 0) {
        minSeen_ = x;
        maxSeen_ = x;
    } else {
        minSeen_ = std::min(minSeen_, x);
        maxSeen_ = std::max(maxSeen_, x);
    }
    finite_++;
    if (x < lo_) {
        underflow_++;
        return;
    }
    if (x >= hi_) {
        overflow_++;
        return;
    }
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size())
        idx = counts_.size() - 1;
    counts_[idx]++;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = total_ = finite_ = 0;
    minSeen_ = maxSeen_ = 0.0;
}

double
Histogram::minSeen() const
{
    return finite_ ? minSeen_ : 0.0;
}

double
Histogram::maxSeen() const
{
    return finite_ ? maxSeen_ : 0.0;
}

void
Histogram::merge(const Histogram &other)
{
    if (lo_ != other.lo_ || hi_ != other.hi_ ||
        counts_.size() != other.counts_.size())
        throw std::invalid_argument(
            "Histogram::merge: incompatible geometry");
    for (std::size_t i = 0; i < counts_.size(); i++)
        counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
    if (other.finite_) {
        if (finite_ == 0) {
            minSeen_ = other.minSeen_;
            maxSeen_ = other.maxSeen_;
        } else {
            minSeen_ = std::min(minSeen_, other.minSeen_);
            maxSeen_ = std::max(maxSeen_, other.maxSeen_);
        }
        finite_ += other.finite_;
    }
}

double
Histogram::binLow(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::binHigh(std::size_t i) const
{
    return binLow(i) + width_;
}

double
Histogram::quantile(double p) const
{
    if (total_ == 0)
        return lo_;
    p = std::clamp(p, 0.0, 1.0);
    const auto clampSeen = [this](double q) {
        // Interpolation picks a point inside the containing bin; the
        // distribution never extends past the observed extremes, so
        // neither may the reported quantile. (With only NaN samples
        // there is no observed range; fall back to the raw value.)
        return finite_ ? std::clamp(q, minSeen_, maxSeen_) : q;
    };
    double target = p * static_cast<double>(total_);
    double cum = static_cast<double>(underflow_);
    if (target <= cum)
        return clampSeen(lo_);
    for (std::size_t i = 0; i < counts_.size(); i++) {
        double next = cum + static_cast<double>(counts_[i]);
        if (target <= next && counts_[i] > 0) {
            double frac = (target - cum) / static_cast<double>(counts_[i]);
            return clampSeen(binLow(i) + frac * width_);
        }
        cum = next;
    }
    return clampSeen(hi_);
}

} // namespace sibyl
