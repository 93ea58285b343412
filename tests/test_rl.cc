/**
 * @file
 * Tests for the RL substrate: replay buffer (capacity/dedup/sampling),
 * categorical support/projection (mass conservation properties), and
 * the C51 agent's learning on a contextual-bandit toy problem, and the
 * C51 decision path: the row decode against a per-action softmax +
 * expectation reference on edge-case logits, and the per-sync greedy
 * decision memo against a fresh evaluation of every decision.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "core/sibyl_policy.hh"
#include "hss/hybrid_system.hh"
#include "ml/activations.hh"
#include "rl/c51_agent.hh"
#include "rl/categorical.hh"
#include "rl/checkpoint.hh"
#include "rl/replay_buffer.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

namespace sibyl::rl
{
namespace
{

Experience
exp1(float s, std::uint32_t a, float r, float ns)
{
    return {{s}, a, r, {ns}};
}

TEST(ReplayBuffer, CapacityBounded)
{
    ReplayBuffer buf(4, /*dedup=*/false);
    for (int i = 0; i < 10; i++)
        buf.add(exp1(static_cast<float>(i), 0, 0.0f, 0.0f));
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.totalAdded(), 10u);
}

TEST(ReplayBuffer, RingOverwritesOldest)
{
    ReplayBuffer buf(2, false);
    buf.add(exp1(1, 0, 0, 0));
    buf.add(exp1(2, 0, 0, 0));
    buf.add(exp1(3, 0, 0, 0)); // overwrites "1"
    bool saw1 = false;
    for (std::size_t i = 0; i < buf.size(); i++)
        saw1 |= buf[i].state[0] == 1.0f;
    EXPECT_FALSE(saw1);
}

TEST(ReplayBuffer, DedupDropsIdentical)
{
    ReplayBuffer buf(10, true);
    EXPECT_TRUE(buf.add(exp1(1, 0, 0.5f, 2)));
    EXPECT_FALSE(buf.add(exp1(1, 0, 0.5f, 2)));
    EXPECT_TRUE(buf.add(exp1(1, 1, 0.5f, 2))); // different action
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.duplicatesDropped(), 1u);
}

TEST(ReplayBuffer, DedupAllowsReinsertAfterEviction)
{
    ReplayBuffer buf(2, true);
    buf.add(exp1(1, 0, 0, 0));
    buf.add(exp1(2, 0, 0, 0));
    buf.add(exp1(3, 0, 0, 0)); // evicts "1"
    EXPECT_TRUE(buf.add(exp1(1, 0, 0, 0)));
}

TEST(ReplayBuffer, SampleCoversEntries)
{
    ReplayBuffer buf(8, false);
    for (int i = 0; i < 8; i++)
        buf.add(exp1(static_cast<float>(i), 0, 0, 0));
    Pcg32 rng(3);
    auto batch = buf.sample(1000, rng);
    EXPECT_EQ(batch.size(), 1000u);
    std::set<float> seen;
    for (auto *e : batch)
        seen.insert(e->state[0]);
    EXPECT_EQ(seen.size(), 8u);
}

TEST(ReplayBuffer, SampleEmptyReturnsNothing)
{
    ReplayBuffer buf(8, false);
    Pcg32 rng(3);
    EXPECT_TRUE(buf.sample(10, rng).empty());
}

// --------------------------- CategoricalSupport ----------------------

TEST(Categorical, AtomSpacing)
{
    CategoricalSupport s(0.0, 10.0, 51);
    EXPECT_DOUBLE_EQ(s.deltaZ(), 0.2);
    EXPECT_DOUBLE_EQ(s.atomValue(0), 0.0);
    EXPECT_DOUBLE_EQ(s.atomValue(50), 10.0);
}

TEST(Categorical, RejectsBadParams)
{
    EXPECT_THROW(CategoricalSupport(0.0, 0.0, 51), std::invalid_argument);
    EXPECT_THROW(CategoricalSupport(0.0, 1.0, 1), std::invalid_argument);
}

TEST(Categorical, ExpectationOfPointMass)
{
    CategoricalSupport s(0.0, 10.0, 51);
    ml::Vector probs(51, 0.0f);
    probs[25] = 1.0f;
    EXPECT_NEAR(s.expectation(probs), 5.0, 1e-6);
}

/** Projection property: output is a distribution (mass conserved) for
 *  random inputs, rewards, and gammas. */
TEST(Categorical, ProjectionConservesMass)
{
    CategoricalSupport s(0.0, 10.0, 51);
    Pcg32 rng(7);
    for (int trial = 0; trial < 200; trial++) {
        ml::Vector probs(51, 0.0f);
        float total = 0.0f;
        for (auto &p : probs) {
            p = static_cast<float>(rng.nextDouble());
            total += p;
        }
        for (auto &p : probs)
            p /= total;
        double reward = rng.nextDouble(-5.0, 15.0);
        double gamma = rng.nextDouble(0.0, 1.0);
        ml::Vector target;
        s.project(probs, reward, gamma, target);
        double sum = 0.0;
        for (float p : target) {
            EXPECT_GE(p, 0.0f);
            sum += p;
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Categorical, ProjectionShiftsByReward)
{
    CategoricalSupport s(0.0, 10.0, 51);
    ml::Vector probs(51, 0.0f);
    probs[0] = 1.0f; // all mass at value 0
    ml::Vector target;
    s.project(probs, 4.0, 0.9, target);
    // r + gamma*0 = 4.0 -> atom 20.
    EXPECT_NEAR(target[20], 1.0f, 1e-6);
}

TEST(Categorical, ProjectionClampsOutOfRange)
{
    CategoricalSupport s(0.0, 10.0, 51);
    ml::Vector probs(51, 0.0f);
    probs[50] = 1.0f; // value 10
    ml::Vector target;
    s.project(probs, 100.0, 1.0, target); // 110 clamps to vmax
    EXPECT_NEAR(target[50], 1.0f, 1e-6);
    s.project(probs, -100.0, 1.0, target); // clamps to vmin
    EXPECT_NEAR(target[0], 1.0f, 1e-6);
}

TEST(Categorical, ProjectionInterpolatesBetweenAtoms)
{
    CategoricalSupport s(0.0, 10.0, 51); // delta 0.2
    ml::Vector probs(51, 0.0f);
    probs[0] = 1.0f;
    ml::Vector target;
    s.project(probs, 0.3, 0.9, target); // lands halfway 0.2..0.4
    EXPECT_NEAR(target[1], 0.5f, 1e-5);
    EXPECT_NEAR(target[2], 0.5f, 1e-5);
}

// ------------------------------- Agent -------------------------------

C51Config
banditConfig()
{
    C51Config cfg;
    cfg.stateDim = 1;
    cfg.numActions = 2;
    cfg.vmin = 0.0;
    cfg.vmax = 2.0;
    cfg.gamma = 0.0; // pure bandit
    cfg.learningRate = 5e-3;
    cfg.bufferCapacity = 256;
    cfg.trainEvery = 64;
    cfg.targetSyncEvery = 64;
    cfg.batchSize = 32;
    cfg.epsilon = 0.2;
    cfg.dedupBuffer = false;
    return cfg;
}

TEST(C51Agent, LearnsContextualBandit)
{
    // State 0: action 0 pays 1.0, action 1 pays 0.1 — and vice versa
    // for state 1. The agent must learn the state-conditional policy.
    C51Agent agent(banditConfig());
    Pcg32 rng(99);
    for (int i = 0; i < 4000; i++) {
        float s = rng.nextBool(0.5) ? 1.0f : 0.0f;
        ml::Vector state = {s};
        auto a = agent.selectAction(state);
        float reward =
            (a == static_cast<std::uint32_t>(s)) ? 0.1f : 1.0f;
        // best action for state s is 1-s
        agent.observe({state, a, reward, state});
    }
    EXPECT_EQ(agent.greedyAction({0.0f}), 1u);
    EXPECT_EQ(agent.greedyAction({1.0f}), 0u);
    auto q0 = agent.qValues({0.0f});
    EXPECT_GT(q0[1], q0[0]);
}

TEST(C51Agent, EpsilonZeroIsDeterministic)
{
    auto cfg = banditConfig();
    cfg.epsilon = 0.0;
    C51Agent agent(cfg);
    auto first = agent.selectAction({0.5f});
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(agent.selectAction({0.5f}), first);
    EXPECT_EQ(agent.stats().randomActions, 0u);
}

TEST(C51Agent, EpsilonOneAlwaysExplores)
{
    auto cfg = banditConfig();
    cfg.epsilon = 1.0;
    C51Agent agent(cfg);
    for (int i = 0; i < 200; i++)
        agent.selectAction({0.5f});
    EXPECT_EQ(agent.stats().randomActions, 200u);
}

TEST(C51Agent, TrainingCadenceAndSyncs)
{
    auto cfg = banditConfig();
    cfg.bufferCapacity = 32;
    cfg.trainEvery = 32;
    cfg.targetSyncEvery = 64;
    C51Agent agent(cfg);
    Pcg32 rng(1);
    for (int i = 0; i < 128; i++) {
        ml::Vector s = {static_cast<float>(rng.nextDouble())};
        agent.observe({s, 0, 0.5f, s});
    }
    EXPECT_EQ(agent.stats().trainingRounds, 4u); // at 32,64,96,128
    EXPECT_EQ(agent.stats().weightSyncs, 2u);    // at 64,128
}

TEST(C51Agent, SyncMakesInferenceMatchTraining)
{
    C51Agent agent(banditConfig());
    Pcg32 rng(1);
    for (int i = 0; i < 300; i++) {
        ml::Vector s = {static_cast<float>(rng.nextDouble())};
        agent.observe({s, rng.nextBounded(2), 0.5f, s});
    }
    // Drift the training net, then sync: outputs must match.
    agent.trainRound();
    ml::Vector probe = {0.5f};
    agent.syncWeights();
    EXPECT_EQ(agent.inferenceNetwork().forward(probe),
              agent.trainingNetwork().forward(probe));
}

TEST(C51Agent, QValuesWithinSupport)
{
    C51Agent agent(banditConfig());
    auto q = agent.qValues({0.3f});
    for (double v : q) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 2.0);
    }
}

TEST(C51Agent, SetLearningRatePropagates)
{
    C51Agent agent(banditConfig());
    agent.setLearningRate(1e-5);
    EXPECT_DOUBLE_EQ(agent.config().learningRate, 1e-5);
}


// ---------------------------------------------------------------------
// Prioritized replay
// ---------------------------------------------------------------------

TEST(PrioritizedReplay, NewEntriesGetMaxPriority)
{
    ReplayBuffer buf(8, /*dedup=*/false);
    Experience e;
    e.state = {0.1f};
    e.nextState = {0.1f};
    buf.add(e);
    EXPECT_FLOAT_EQ(buf.priority(0), 1.0f);
    buf.setPriority(0, 5.0f);
    buf.add(e); // inherits new max
    EXPECT_FLOAT_EQ(buf.priority(1), 5.0f);
}

TEST(PrioritizedReplay, SamplingFollowsPriorities)
{
    ReplayBuffer buf(4, /*dedup=*/false);
    for (int i = 0; i < 4; i++) {
        Experience e;
        e.state = {static_cast<float>(i)};
        e.nextState = {0.0f};
        buf.add(e);
    }
    buf.setPriority(0, 100.0f);
    buf.setPriority(1, 0.001f);
    buf.setPriority(2, 0.001f);
    buf.setPriority(3, 0.001f);
    Pcg32 rng(9);
    std::vector<std::size_t> idx;
    buf.samplePrioritizedIndices(2000, rng, 1.0, idx);
    std::size_t hits = 0;
    for (auto i : idx)
        hits += i == 0 ? 1 : 0;
    EXPECT_GT(hits, 1900u); // ~99.997% expected
}

TEST(PrioritizedReplay, AlphaZeroIsUniform)
{
    ReplayBuffer buf(4, /*dedup=*/false);
    for (int i = 0; i < 4; i++) {
        Experience e;
        e.state = {static_cast<float>(i)};
        e.nextState = {0.0f};
        buf.add(e);
    }
    buf.setPriority(0, 1000.0f);
    Pcg32 rng(9);
    std::vector<std::size_t> idx;
    buf.samplePrioritizedIndices(4000, rng, 0.0, idx);
    std::vector<std::size_t> counts(4, 0);
    for (auto i : idx)
        counts[i]++;
    for (auto c : counts)
        EXPECT_NEAR(static_cast<double>(c), 1000.0, 200.0);
}

TEST(PrioritizedReplay, ImportanceWeightsBounded)
{
    ReplayBuffer buf(8, /*dedup=*/false);
    for (int i = 0; i < 8; i++) {
        Experience e;
        e.state = {static_cast<float>(i)};
        e.nextState = {0.0f};
        buf.add(e);
        buf.setPriority(static_cast<std::size_t>(i),
                        0.1f * static_cast<float>(i + 1));
    }
    for (std::size_t i = 0; i < 8; i++) {
        const double w = buf.importanceWeight(i, 0.6, 0.4);
        EXPECT_GT(w, 0.0);
        EXPECT_LE(w, 1.0 + 1e-9);
    }
    // The rarest (lowest-priority) entry carries the largest weight.
    EXPECT_NEAR(buf.importanceWeight(0, 0.6, 0.4), 1.0, 1e-9);
}

TEST(PrioritizedReplay, SetPriorityFloorsAtPositive)
{
    ReplayBuffer buf(2, false);
    Experience e;
    e.state = {0.0f};
    e.nextState = {0.0f};
    buf.add(e);
    buf.setPriority(0, 0.0f);
    EXPECT_GT(buf.priority(0), 0.0f);
}

// ------------------------- C51 decision path ------------------------

/** Reference C51 decode: per action, copy the atom group, ml::softmax()
 *  it and take expectation() — the contract of
 *  CategoricalSupport::decode(), and the decision the memo must
 *  reproduce. */
void
referenceDecode(const CategoricalSupport &sup, const float *row,
                std::uint32_t actions, std::vector<float> &probs,
                std::vector<double> &q)
{
    const std::uint32_t atoms = sup.atoms();
    probs.resize(static_cast<std::size_t>(actions) * atoms);
    q.resize(actions);
    ml::Vector dist;
    for (std::uint32_t a = 0; a < actions; a++) {
        dist.assign(row + a * atoms, row + (a + 1) * atoms);
        ml::softmax(dist);
        q[a] = sup.expectation(dist);
        std::copy(dist.begin(), dist.end(), probs.begin() + a * atoms);
    }
}

/** Reference greedy decision: first max of the reference Q values over
 *  the allowed actions. */
std::uint32_t
referenceGreedy(const CategoricalSupport &sup, const float *row,
                std::uint32_t actions, std::uint32_t mask)
{
    std::vector<float> probs;
    std::vector<double> q;
    referenceDecode(sup, row, actions, probs, q);
    const std::uint32_t full = (1u << actions) - 1u;
    const bool restricted = (mask & full) != full;
    std::uint32_t best = restricted
        ? static_cast<std::uint32_t>(std::countr_zero(mask))
        : 0;
    double bestQ = -1e300;
    for (std::uint32_t a = 0; a < actions; a++) {
        if (restricted && !(mask >> a & 1u))
            continue;
        if (q[a] > bestQ) {
            bestQ = q[a];
            best = a;
        }
    }
    return best;
}

/** Same bits, except that any two NaNs match: which NaN payload an x86
 *  op returns depends on the operand order the compiler picks. */
template <typename T>
bool
sameBits(T a, T b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Eleven @p actions x @p atoms output rows: one random row, then ten
 * that each plant an edge case in one action group — NaN (as the max
 * and later), +-0 maxima, +-Inf, fastExpf saturation, an exact
 * all-action tie (row 8), an all -Inf group and logits far below 0.
 */
std::vector<ml::Vector>
decodeEdgeRows(std::uint32_t atoms, std::uint32_t actions, Pcg32 &rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::size_t width = static_cast<std::size_t>(actions) * atoms;
    std::vector<ml::Vector> rows;
    for (int kind = 0; kind < 11; kind++) {
        ml::Vector r(width);
        for (auto &v : r)
            v = static_cast<float>(rng.nextDouble(-4.0, 4.0));
        const std::uint32_t a = kind % actions;
        float *g = r.data() + a * atoms;
        switch (kind) {
          case 1: g[0] = nan; break;         // NaN max
          case 2: g[atoms - 1] = nan; break; // NaN skipped
          case 3: // +-0 maxima: all <= 0, first max -0
            for (std::uint32_t i = 0; i < atoms; i++)
                g[i] = -std::abs(g[i]);
            g[0] = -0.0f;
            g[atoms - 1] = 0.0f;
            break;
          case 4: // +0 first, -0 later
            for (std::uint32_t i = 0; i < atoms; i++)
                g[i] = -std::abs(g[i]);
            g[atoms / 2] = 0.0f;
            g[atoms - 1] = -0.0f;
            break;
          case 5: g[atoms / 2] = inf; break;
          case 6: g[atoms - 1] = -inf; g[0] = inf; break;
          case 7: // fastExpf saturation
            g[0] = 1e4f;
            g[atoms - 1] = -1e4f;
            break;
          case 8: // exact Q tie: every action the same
            for (std::uint32_t b = 1; b < actions; b++)
                std::copy(r.begin(), r.begin() + atoms,
                          r.begin() + b * atoms);
            break;
          case 9: // all -Inf group
            std::fill(g, g + atoms, -inf);
            break;
          case 10: // every logit well below zero
            for (std::uint32_t i = 0; i < atoms; i++)
                g[i] = -20.0f - std::abs(g[i]);
            break;
          default: break;
        }
        rows.push_back(r);
    }
    return rows;
}

TEST(C51Decode, MatchesPerActionSoftmaxExpectationBitwise)
{
    for (const std::uint32_t atoms : {2u, 51u, 64u}) {
        for (const std::uint32_t actions : {2u, 3u, 4u}) {
            for (const double vmin : {0.0, -10.0}) {
                const CategoricalSupport sup(vmin, 12.0, atoms);
                AgentConfig cfg;
                cfg.numActions = actions;
                cfg.atoms = atoms;
                cfg.vmin = vmin;
                C51Agent agent(cfg);
                const std::size_t width =
                    static_cast<std::size_t>(actions) * atoms;
                Pcg32 rng(atoms * 131 + actions);
                const std::vector<ml::Vector> rows =
                    decodeEdgeRows(atoms, actions, rng);
                std::vector<float> probs(width), refProbs;
                std::vector<double> q(actions), refQ;
                for (std::size_t r = 0; r < rows.size(); r++) {
                    const float *row = rows[r].data();
                    sup.decode(row, actions, probs.data(), q.data());
                    referenceDecode(sup, row, actions, refProbs, refQ);
                    for (std::uint32_t a = 0; a < actions; a++)
                        ASSERT_TRUE(sameBits(q[a], refQ[a]))
                            << "atoms " << atoms << " actions " << actions
                            << " row " << r << " action " << a << ": "
                            << q[a] << " vs " << refQ[a];
                    for (std::size_t i = 0; i < width; i++)
                        ASSERT_TRUE(sameBits(probs[i], refProbs[i]))
                            << "row " << r << " prob " << i;
                    for (std::uint32_t mask = 1; mask < (1u << actions);
                         mask++) {
                        agent.setActionMask(mask);
                        ASSERT_EQ(agent.selectActionFromRow(row),
                                  referenceGreedy(sup, row, actions, mask))
                            << "row " << r << " mask " << mask;
                    }
                }
                // Exact tie: the first action wins.
                agent.setActionMask(0xFFFFFFFFu);
                EXPECT_EQ(agent.selectActionFromRow(rows[8].data()), 0u);
            }
        }
    }
}

/**
 * The lane decode of the Bellman targets equals the per-row decode()
 * followed by the target path's first-max argmax (an expectation must
 * beat -1e30), bit for bit, at every live-lane count of a tile and
 * across a tile boundary, on the edge-case rows above and a tie.
 */
TEST(C51Decode, LaneGreedyDistMatchesPerRowDecodeBitwise)
{
    for (const std::uint32_t atoms : {2u, 51u, 64u}) {
        for (const std::uint32_t actions : {2u, 3u, 4u}) {
            for (const double vmin : {0.0, -10.0}) {
                const CategoricalSupport sup(vmin, 12.0, atoms);
                const std::size_t width =
                    static_cast<std::size_t>(actions) * atoms;
                Pcg32 rng(atoms * 131 + actions);
                std::vector<ml::Vector> rows =
                    decodeEdgeRows(atoms, actions, rng);
                // A Q tie between different distributions: every
                // group puts all its mass on the last atom (in float)
                // but a different sliver on atom 0, so with two atoms
                // and vmin 0 every expectation is exactly 12. Only the
                // first max copies action 0's sliver.
                ml::Vector tie(width, -40.0f);
                for (std::uint32_t a = 0; a < actions; a++) {
                    tie[a * atoms] = -20.0f - static_cast<float>(a);
                    tie[a * atoms + atoms - 1] = 0.0f;
                }
                rows.push_back(tie);
                const std::size_t n = rows.size();

                std::vector<ml::Vector> ref(n, ml::Vector(atoms));
                std::vector<float> probs(width);
                std::vector<double> q(actions);
                for (std::size_t r = 0; r < n; r++) {
                    sup.decode(rows[r].data(), actions, probs.data(),
                               q.data());
                    std::uint32_t best = 0;
                    double bestQ = -1e30;
                    for (std::uint32_t a = 0; a < actions; a++) {
                        if (q[a] > bestQ) {
                            bestQ = q[a];
                            best = a;
                        }
                    }
                    std::copy(probs.begin() + best * atoms,
                              probs.begin() + (best + 1) * atoms,
                              ref[r].begin());
                }

                ml::Vector tile;
                for (std::size_t live = 1; live <= n; live++) {
                    for (std::size_t first = 0; first < n; first++) {
                        std::vector<const float *> in(live);
                        std::vector<ml::Vector> out(live,
                                                    ml::Vector(atoms));
                        std::vector<float *> dist(live);
                        for (std::size_t k = 0; k < live; k++) {
                            in[k] = rows[(first + k) % n].data();
                            dist[k] = out[k].data();
                        }
                        sup.greedyDistRows(in.data(), live, actions,
                                           dist.data(), tile);
                        for (std::size_t k = 0; k < live; k++) {
                            const std::size_t r = (first + k) % n;
                            for (std::uint32_t i = 0; i < atoms; i++)
                                ASSERT_TRUE(sameBits(out[k][i], ref[r][i]))
                                    << "atoms " << atoms << " actions "
                                    << actions << " live " << live
                                    << " row " << r << " atom " << i;
                        }
                    }
                }
            }
        }
    }
}

/**
 * Drives a C51 agent decision by decision on a quantized observation
 * stream and checks each one against a fresh evaluation of the current
 * inference network with the reference decode, and each memo hit or
 * miss against a test-local model of the memo: one set of observations
 * per sync period, under the full action mask only, started over when
 * it holds @p memoRows observations.
 */
struct DecisionStream
{
    DecisionStream(C51Agent &a, std::size_t rows) : agent(a), memoRows(rows)
    {
    }

    C51Agent &agent;
    std::size_t memoRows;
    Pcg32 data{0x3E30};
    ml::Vector prev;
    std::uint32_t prevAction = 0;
    std::set<std::vector<float>> model;
    std::uint64_t modelSyncs = 0;
    std::uint64_t greedy = 0;
    std::uint64_t restarts = 0;
    std::uint64_t restartsAfterSync = 0;
    std::vector<std::uint32_t> actions;
    std::vector<std::uint32_t> reference;

    /** One decision. @p levels quantizes each feature (0 = continuous);
     *  @p observe completes the previous transition first. */
    void
    step(std::uint32_t mask, std::uint32_t levels, bool observe = true)
    {
        const std::uint32_t dim = agent.config().stateDim;
        const std::uint32_t numActions = agent.config().numActions;
        ml::Vector s(dim);
        for (auto &v : s)
            v = levels ? static_cast<float>(data.nextBounded(levels)) /
                    static_cast<float>(levels)
                       : static_cast<float>(data.nextDouble(0.0, 1.0));
        if (observe && !prev.empty()) {
            const bool good = prevAction == (prev[0] < 0.5f ? 1u : 0u);
            agent.observeTransition(prev, prevAction,
                                    good ? 1.5f : 0.25f, s);
        }
        if (agent.stats().weightSyncs != modelSyncs) {
            modelSyncs = agent.stats().weightSyncs;
            model.clear();
        }
        agent.setActionMask(mask);
        const AgentStats before = agent.stats();
        std::uint32_t a = 0;
        const bool done = agent.selectActionBegin(s, a);
        const bool explored =
            agent.stats().randomActions != before.randomActions;
        const bool hit =
            agent.stats().decisionMemoHits != before.decisionMemoHits;
        const float *row = agent.inferenceNetwork().inferRow(s);
        const std::uint32_t ref =
            referenceGreedy(agent.support(), row, numActions, mask);
        if (!done)
            a = agent.selectActionFromRow(row);
        actions.push_back(a);
        reference.push_back(explored ? a : ref);

        bool expectHit = false;
        const std::uint32_t full = (1u << numActions) - 1u;
        if (!explored && (mask & full) == full) {
            greedy++;
            const std::vector<float> key(s.begin(), s.end());
            expectHit = model.count(key) != 0;
            if (!expectHit) {
                if (model.size() == memoRows) {
                    model.clear();
                    restarts++;
                    restartsAfterSync += modelSyncs > 0;
                }
                model.insert(key);
            }
        }
        ASSERT_EQ(hit, expectHit) << "decision " << actions.size();
        prev = s;
        prevAction = a;
    }
};

TEST(C51DecisionMemo, MatchesFreshEvaluationOfEveryDecision)
{
    // Default C51 hyper-parameters at the repo's Sibyl cadence (train
    // every 125 observations, sync every 500), so the training network
    // has moved on from the inference network mid-period.
    AgentConfig cfg;
    cfg.trainEvery = 125;
    cfg.targetSyncEvery = 500;
    C51Agent agent(cfg);
    DecisionStream d(agent, cfg.targetSyncEvery);
    for (int i = 0; i < 3000; i++) // fills the buffer, then syncs
        d.step(0x3, 3);
    ASSERT_GE(agent.stats().weightSyncs, 3u);

    // Checkpoint round trip mid-period: loading syncs the saved
    // training weights into the inference network, which changes the
    // decisions the memo must forget.
    std::stringstream ckpt;
    saveCheckpoint(agent, ckpt);
    ASSERT_EQ(loadCheckpoint(agent, ckpt), "");
    for (int i = 0; i < 300; i++)
        d.step(0x3, 3);

    // Action mask toggling between full and restricted: restricted
    // decisions neither read nor fill the memo.
    for (int i = 0; i < 600; i++)
        d.step(i % 3 == 0 ? 0x2u : 0x3u, 3);

    // A burst of decisions on continuous observations without
    // observing: more distinct observations than memo rows within
    // one sync period, so the memo starts over mid-period.
    const std::uint64_t syncs = agent.stats().weightSyncs;
    for (int i = 0; i < 1200; i++)
        d.step(0x3, 0, /*observe=*/false);
    ASSERT_EQ(agent.stats().weightSyncs, syncs);
    for (int i = 0; i < 600; i++)
        d.step(0x3, 3);

    EXPECT_EQ(d.actions, d.reference);
    EXPECT_GE(d.restartsAfterSync, 2u);
    // The model above checked every hit and miss; the memo must also
    // matter on a stream like this one.
    EXPECT_GT(agent.stats().decisionMemoHits, d.greedy / 8);
    EXPECT_EQ(agent.stats().decisions, d.actions.size());
}

TEST(C51DecisionMemo, BoltzmannExplorationBypassesMemo)
{
    AgentConfig cfg;
    cfg.trainEvery = 125;
    cfg.targetSyncEvery = 500;
    cfg.exploration.kind = ExplorationKind::Boltzmann;
    C51Agent agent(cfg);
    DecisionStream d(agent, cfg.targetSyncEvery);
    for (int i = 0; i < 3000; i++) {
        d.step(0x3, 3);
        d.model.clear(); // Boltzmann never consults the memo
    }
    ASSERT_GE(agent.stats().weightSyncs, 3u);
    EXPECT_EQ(agent.stats().decisionMemoHits, 0u);
}

TEST(C51DecisionMemo, AnswersAProperShareOfASibylRun)
{
    // A default Sibyl-C51 run of prxy_1: the memo must answer some of
    // the run's decisions (0 would mean it never hits) and leave some
    // to the network (1 would mean inference never ran).
    const trace::Trace t = trace::makeWorkload("prxy_1", 2000);
    hss::HybridSystem sys(hss::makeHssConfig("H&M", t.uniquePages()), 42);
    const auto policy = sim::makePolicy("Sibyl-C51", sys.numDevices());
    sim::runSimulation(t, sys, *policy);
    const AgentStats &stats =
        dynamic_cast<core::SibylPolicy &>(*policy).agent().stats();
    ASSERT_GT(stats.decisions, 0u);
    const double share = static_cast<double>(stats.decisionMemoHits) /
                         static_cast<double>(stats.decisions);
    EXPECT_GT(share, 0.0);
    EXPECT_LT(share, 1.0);
}

} // namespace
} // namespace sibyl::rl
