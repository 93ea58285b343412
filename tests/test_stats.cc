/**
 * @file
 * Unit tests for streaming statistics and histograms.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"

namespace sibyl
{
namespace
{

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12); // sample variance
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat s;
    s.add(42.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.mean(), 42.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    Pcg32 rng(3);
    RunningStat all, a, b;
    for (int i = 0; i < 1000; i++) {
        double x = rng.nextGaussian(10.0, 4.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b); // no-op
    EXPECT_EQ(a.count(), 2u);
    b.merge(a); // copies
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, CountsAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.5);
    h.add(9.5);
    h.add(10.0); // boundary -> overflow
    h.add(99.0);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
}

TEST(Histogram, QuantileMedian)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; i++)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinEdges)
{
    Histogram h(10.0, 20.0, 5);
    EXPECT_DOUBLE_EQ(h.binLow(0), 10.0);
    EXPECT_DOUBLE_EQ(h.binHigh(0), 12.0);
    EXPECT_DOUBLE_EQ(h.binLow(4), 18.0);
}

TEST(Histogram, QuantileClampedToObservedRange)
{
    // Bin interpolation picks a point inside the containing bin, which
    // used to overshoot the largest inserted sample (an all-equal set
    // reported q99 values nothing ever measured). quantile() now clamps
    // to the observed [minSeen, maxSeen] range.
    Histogram h(0.0, 100.0, 10); // 10-unit bins
    for (int i = 0; i < 100; i++)
        h.add(51.0); // all mass in bin [50, 60)
    for (double p : {0.0, 0.01, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(p), 51.0) << "p=" << p;
    EXPECT_DOUBLE_EQ(h.minSeen(), 51.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 51.0);
}

TEST(Histogram, QuantileMonotoneInP)
{
    Histogram h(0.0, 1000.0, 64);
    Pcg32 rng(5);
    for (int i = 0; i < 5000; i++)
        h.add(rng.nextDouble(0.0, 1000.0));
    double prev = -1.0;
    for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const double q = h.quantile(p);
        EXPECT_GE(q, prev) << "p=" << p;
        prev = q;
    }
}

TEST(Histogram, QuantileZeroAndOneHitBounds)
{
    // One sample: every quantile IS that sample (p=0 used to report
    // the range lower bound 0.0, a latency nothing ever measured).
    Histogram h(0.0, 10.0, 10);
    h.add(5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(Histogram, QuantileEdgeCaseTable)
{
    // Table-driven audit of the degenerate sample sets: 0 samples,
    // 1 sample, all-equal, all-underflow, all-overflow, and NaN.
    struct Case
    {
        const char *name;
        std::vector<double> samples;
        double p;
        double want;
    };
    const std::vector<Case> cases = {
        {"empty-p0", {}, 0.0, 0.0},          // no samples -> lo
        {"empty-p50", {}, 0.5, 0.0},
        {"empty-p999", {}, 0.999, 0.0},
        {"one-sample-p0", {7.25}, 0.0, 7.25},
        {"one-sample-p50", {7.25}, 0.5, 7.25},
        {"one-sample-p999", {7.25}, 0.999, 7.25},
        {"all-equal-p50", {3.0, 3.0, 3.0, 3.0}, 0.5, 3.0},
        {"all-equal-p999", {3.0, 3.0, 3.0, 3.0}, 0.999, 3.0},
        // All mass out of range: the lo/hi fallback is pulled into
        // the observed range (toward its nearest edge).
        {"all-underflow", {-5.0, -2.0}, 0.5, -2.0},
        {"all-overflow", {50.0, 60.0}, 0.5, 50.0},
        {"two-point", {2.0, 8.0}, 0.0, 2.0},
        {"two-point-max", {2.0, 8.0}, 1.0, 8.0},
    };
    for (const auto &c : cases) {
        Histogram h(0.0, 10.0, 10);
        for (double x : c.samples)
            h.add(x);
        const double q = h.quantile(c.p);
        EXPECT_DOUBLE_EQ(q, c.want) << c.name;
        EXPECT_FALSE(std::isnan(q)) << c.name;
    }
}

TEST(Histogram, NanSampleCountsAsOverflow)
{
    // Casting NaN to a bin index is UB; it must land in the overflow
    // bucket (the only one that cannot understate a tail) and must not
    // poison minSeen/maxSeen or quantiles.
    Histogram h(0.0, 10.0, 10);
    h.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_FALSE(std::isnan(h.quantile(0.5)));
    h.add(4.0);
    EXPECT_DOUBLE_EQ(h.minSeen(), 4.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 4.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.999), 4.0);
}

TEST(Histogram, MergeMatchesSequential)
{
    Histogram all(0.0, 100.0, 32), a(0.0, 100.0, 32), b(0.0, 100.0, 32);
    Pcg32 rng(11);
    for (int i = 0; i < 2000; i++) {
        const double x = rng.nextDouble(-10.0, 110.0);
        all.add(x);
        (i % 3 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.underflow(), all.underflow());
    EXPECT_EQ(a.overflow(), all.overflow());
    EXPECT_DOUBLE_EQ(a.minSeen(), all.minSeen());
    EXPECT_DOUBLE_EQ(a.maxSeen(), all.maxSeen());
    for (std::size_t i = 0; i < all.bins(); i++)
        EXPECT_EQ(a.binCount(i), all.binCount(i)) << "bin " << i;
    for (double p : {0.01, 0.5, 0.99, 0.999})
        EXPECT_DOUBLE_EQ(a.quantile(p), all.quantile(p)) << "p=" << p;
}

TEST(Histogram, MergeRejectsIncompatibleGeometry)
{
    Histogram a(0.0, 100.0, 32);
    Histogram differentRange(0.0, 50.0, 32);
    Histogram differentBins(0.0, 100.0, 64);
    EXPECT_THROW(a.merge(differentRange), std::invalid_argument);
    EXPECT_THROW(a.merge(differentBins), std::invalid_argument);
}

TEST(Histogram, UnderflowCountsTowardLowQuantiles)
{
    Histogram h(10.0, 20.0, 10);
    for (int i = 0; i < 90; i++)
        h.add(5.0); // below range
    for (int i = 0; i < 10; i++)
        h.add(15.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0); // clamped to lo
    EXPECT_EQ(h.underflow(), 90u);
}

TEST(RunningStat, MaxTracksLargest)
{
    RunningStat s;
    s.add(3.0);
    s.add(-7.0);
    s.add(5.5);
    EXPECT_DOUBLE_EQ(s.max(), 5.5);
}

} // namespace
} // namespace sibyl
