/**
 * @file
 * Tests for the sum-tree prioritized sampler: structural invariants,
 * distribution equivalence with the reference prefix-sum sampler
 * (chi-squared on a fixed seed), priority-update propagation, and the
 * O(1)-aggregate importance weights against a brute-force recompute.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "rl/replay_buffer.hh"
#include "rl/sum_tree.hh"

namespace sibyl::rl
{
namespace
{

Experience
makeExp(float tag)
{
    Experience e;
    e.state = {tag, tag + 0.5f};
    e.nextState = {tag + 1.0f, tag + 1.5f};
    e.action = 0;
    e.reward = tag;
    return e;
}

// ---------------------------------------------------------------------
// SumTree structure.
// ---------------------------------------------------------------------

TEST(SumTree, AggregatesTrackUpdates)
{
    SumTree t(5);
    EXPECT_DOUBLE_EQ(t.total(), 0.0);
    t.set(0, 1.0);
    t.set(1, 4.0);
    t.set(2, 2.0);
    EXPECT_DOUBLE_EQ(t.total(), 7.0);
    EXPECT_DOUBLE_EQ(t.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(t.value(1), 4.0);

    // Updates propagate to the root aggregates.
    t.set(0, 10.0);
    EXPECT_DOUBLE_EQ(t.total(), 16.0);
    EXPECT_DOUBLE_EQ(t.minValue(), 2.0);
    t.set(2, 0.5);
    EXPECT_DOUBLE_EQ(t.total(), 14.5);
    EXPECT_DOUBLE_EQ(t.minValue(), 0.5);
}

TEST(SumTree, SampleMapsPrefixIntervalsToLeaves)
{
    SumTree t(4);
    t.set(0, 1.0);
    t.set(1, 2.0);
    t.set(2, 3.0);
    t.set(3, 4.0);
    // Cumulative boundaries: [0,1) -> 0, [1,3) -> 1, [3,6) -> 2, [6,10) -> 3.
    EXPECT_EQ(t.sample(0.0), 0u);
    EXPECT_EQ(t.sample(0.999), 0u);
    EXPECT_EQ(t.sample(1.0), 1u);
    EXPECT_EQ(t.sample(2.999), 1u);
    EXPECT_EQ(t.sample(3.0), 2u);
    EXPECT_EQ(t.sample(6.0), 3u);
    EXPECT_EQ(t.sample(9.999), 3u);
}

TEST(SumTree, ClearResets)
{
    SumTree t(3);
    t.set(0, 5.0);
    t.clear();
    EXPECT_DOUBLE_EQ(t.total(), 0.0);
    EXPECT_TRUE(std::isinf(t.minValue()));
}

// ---------------------------------------------------------------------
// Distribution equivalence: on a fixed seed, the sum-tree sampler and
// the reference prefix-sum sampler must both match the analytic
// p^alpha distribution (chi-squared goodness of fit), and each other.
// ---------------------------------------------------------------------

/**
 * Reference prioritized sampler: rebuilds an O(N) prefix-sum array of
 * priority^alpha (+1e-8, the buffer's transform) and draws by
 * lower_bound, as the replay buffer did before the sum tree.
 */
std::vector<std::size_t>
samplePrefixSum(const ReplayBuffer &buf, std::size_t n, Pcg32 &rng,
                double alpha)
{
    std::vector<double> cum(buf.size());
    double total = 0.0;
    for (std::size_t i = 0; i < buf.size(); i++) {
        total += std::pow(static_cast<double>(buf.priority(i)), alpha) +
                 1e-8;
        cum[i] = total;
    }
    std::vector<std::size_t> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; i++) {
        const double u = rng.nextDouble() * total;
        const auto it = std::lower_bound(cum.begin(), cum.end(), u);
        out.push_back(static_cast<std::size_t>(it - cum.begin()));
    }
    return out;
}

double
chiSquared(const std::vector<std::size_t> &draws, std::size_t bins,
           const std::vector<double> &expectedProb, std::size_t n)
{
    std::vector<double> counts(bins, 0.0);
    for (std::size_t i : draws)
        counts[i] += 1.0;
    double stat = 0.0;
    for (std::size_t b = 0; b < bins; b++) {
        const double expected = expectedProb[b] * static_cast<double>(n);
        stat += (counts[b] - expected) * (counts[b] - expected) / expected;
    }
    return stat;
}

TEST(PrioritizedSumTree, MatchesPrefixSumDistribution)
{
    const double alpha = 0.6;
    ReplayBuffer buf(8, /*dedup=*/false);
    const std::vector<float> prios = {0.2f, 1.0f, 3.0f, 0.5f,
                                      2.0f, 0.1f, 4.0f, 1.5f};
    for (std::size_t i = 0; i < prios.size(); i++)
        buf.add(makeExp(static_cast<float>(i)));
    for (std::size_t i = 0; i < prios.size(); i++)
        buf.setPriority(i, prios[i]);

    std::vector<double> expected(prios.size());
    double total = 0.0;
    for (std::size_t i = 0; i < prios.size(); i++) {
        expected[i] = std::pow(prios[i], alpha) + 1e-8;
        total += expected[i];
    }
    for (auto &p : expected)
        p /= total;

    const std::size_t n = 40000;
    Pcg32 rngTree(2024);
    Pcg32 rngPrefix(2024);
    std::vector<std::size_t> treeDraws;
    buf.samplePrioritizedIndices(n, rngTree, alpha, treeDraws);
    const auto prefixDraws = samplePrefixSum(buf, n, rngPrefix, alpha);

    // df = 7; chi² > 24.3 would reject at p = 0.001. Fixed seed, so
    // this is deterministic, not flaky.
    EXPECT_LT(chiSquared(treeDraws, prios.size(), expected, n), 24.3);
    EXPECT_LT(chiSquared(prefixDraws, prios.size(), expected, n), 24.3);

    // Identical RNG streams walk identical inverse-CDF draws: the two
    // samplers may only disagree on measure-zero interval boundaries.
    ASSERT_EQ(treeDraws.size(), prefixDraws.size());
    std::size_t disagreements = 0;
    for (std::size_t i = 0; i < treeDraws.size(); i++)
        disagreements += treeDraws[i] != prefixDraws[i];
    EXPECT_LE(disagreements, n / 1000);
}

TEST(PrioritizedSumTree, SetPriorityPropagatesToSampling)
{
    ReplayBuffer buf(4, /*dedup=*/false);
    for (int i = 0; i < 4; i++)
        buf.add(makeExp(static_cast<float>(i)));

    Pcg32 rng(7);
    // Prime the tree under alpha=1, then shift all mass to entry 3.
    std::vector<std::size_t> primed;
    buf.samplePrioritizedIndices(10, rng, 1.0, primed);
    buf.setPriority(3, 1e6f);
    std::vector<std::size_t> draws;
    buf.samplePrioritizedIndices(2000, rng, 1.0, draws);
    std::size_t hits = 0;
    for (std::size_t i : draws)
        hits += i == 3;
    EXPECT_GT(hits, 1990u);

    // And back down again: the update must propagate both directions.
    buf.setPriority(3, 1e-6f);
    std::vector<std::size_t> draws2;
    buf.samplePrioritizedIndices(2000, rng, 1.0, draws2);
    std::size_t hits2 = 0;
    for (std::size_t i : draws2)
        hits2 += i == 3;
    EXPECT_LT(hits2, 10u);
}

TEST(PrioritizedSumTree, RingOverwriteUpdatesTree)
{
    ReplayBuffer buf(2, /*dedup=*/false);
    buf.add(makeExp(0.0f));
    buf.add(makeExp(1.0f));
    Pcg32 rng(9);
    std::vector<std::size_t> primed;
    buf.samplePrioritizedIndices(1, rng, 1.0, primed); // key the tree
    buf.setPriority(0, 1e-6f);
    buf.setPriority(1, 1e-6f);
    // Overwrites slot 0 with a fresh max-priority (1.0) entry.
    buf.add(makeExp(2.0f));
    std::vector<std::size_t> draws;
    buf.samplePrioritizedIndices(1000, rng, 1.0, draws);
    std::size_t hits = 0;
    for (std::size_t i : draws)
        hits += i == 0;
    EXPECT_GT(hits, 990u);
}

TEST(PrioritizedSumTree, AlphaSwitchRekeysTree)
{
    ReplayBuffer buf(4, /*dedup=*/false);
    for (int i = 0; i < 4; i++)
        buf.add(makeExp(static_cast<float>(i)));
    buf.setPriority(0, 100.0f);

    Pcg32 rng(11);
    std::vector<std::size_t> skewed;
    buf.samplePrioritizedIndices(4000, rng, 1.0, skewed);
    std::size_t hits = 0;
    for (std::size_t i : skewed)
        hits += i == 0;
    EXPECT_GT(hits, 3500u);

    // alpha = 0 flattens the distribution regardless of priorities.
    std::vector<std::size_t> uniform;
    buf.samplePrioritizedIndices(4000, rng, 0.0, uniform);
    std::vector<std::size_t> counts(4, 0);
    for (std::size_t i : uniform)
        counts[i]++;
    for (std::size_t c : counts) {
        EXPECT_GT(c, 800u);
        EXPECT_LT(c, 1200u);
    }
}

// ---------------------------------------------------------------------
// Importance weights from cached aggregates vs. brute force.
// ---------------------------------------------------------------------

TEST(PrioritizedSumTree, ImportanceWeightMatchesBruteForce)
{
    const double alpha = 0.6, beta = 0.4;
    ReplayBuffer buf(16, /*dedup=*/false);
    std::vector<float> prios;
    Pcg32 rng(31);
    for (int i = 0; i < 16; i++) {
        buf.add(makeExp(static_cast<float>(i)));
        prios.push_back(static_cast<float>(rng.nextDouble(0.01, 5.0)));
    }
    for (std::size_t i = 0; i < prios.size(); i++)
        buf.setPriority(i, prios[i]);

    // Brute force, exactly the pre-sum-tree formula.
    double total = 0.0, minProb = 1e300;
    for (float p : prios) {
        const double pj = std::pow(static_cast<double>(p), alpha) + 1e-8;
        total += pj;
        minProb = std::min(minProb, pj);
    }
    const double n = 16.0;
    for (std::size_t i = 0; i < prios.size(); i++) {
        const double probI =
            (std::pow(static_cast<double>(prios[i]), alpha) + 1e-8) /
            total;
        const double expected = std::pow(n * probI, -beta) /
                                std::pow(n * (minProb / total), -beta);
        EXPECT_NEAR(buf.importanceWeight(i, alpha, beta), expected,
                    1e-9 * std::max(1.0, expected));
    }

    // After a priority update the aggregates must refresh.
    buf.setPriority(5, 0.001f);
    const double w = buf.importanceWeight(5, alpha, beta);
    EXPECT_NEAR(w, 1.0, 1e-9); // rarest entry carries the max weight
}

} // namespace
} // namespace sibyl::rl
