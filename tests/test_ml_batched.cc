/**
 * @file
 * Equivalence tests for the batched GEMM training engine: the blocked
 * matmul kernels against naive references, batched DenseLayer/Network
 * forward/backward against the per-sample path across every activation
 * kind, and whole-agent training (DQN and C51) batched vs. per-sample.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "ml/activations.hh"
#include "ml/layers.hh"
#include "ml/loss.hh"
#include "ml/matrix.hh"
#include "ml/network.hh"
#include "rl/c51_agent.hh"
#include "rl/dqn_agent.hh"

namespace sibyl::ml
{
namespace
{

constexpr float kRelTol = 1e-5f;

void
expectClose(float a, float b, const char *what)
{
    const float tol = kRelTol * std::max({1.0f, std::abs(a), std::abs(b)});
    EXPECT_NEAR(a, b, tol) << what;
}

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Pcg32 &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); i++)
        m.data()[i] = static_cast<float>(rng.nextDouble(-1.0, 1.0));
    return m;
}

// ---------------------------------------------------------------------
// Kernel correctness against naive triple loops (odd shapes exercise
// the blocking and accumulator-tail paths).
// ---------------------------------------------------------------------

TEST(Matmul, MatchesNaive)
{
    Pcg32 rng(42);
    for (auto [m, k, n] : {std::array<std::size_t, 3>{3, 5, 7},
                           {1, 1, 1},
                           {17, 65, 9},
                           {32, 128, 30}}) {
        Matrix a = randomMatrix(m, k, rng);
        Matrix b = randomMatrix(k, n, rng);
        Matrix c;
        a.matmul(b, c);
        ASSERT_EQ(c.rows(), m);
        ASSERT_EQ(c.cols(), n);
        for (std::size_t i = 0; i < m; i++)
            for (std::size_t j = 0; j < n; j++) {
                float ref = 0.0f;
                for (std::size_t kk = 0; kk < k; kk++)
                    ref += a(i, kk) * b(kk, j);
                expectClose(c(i, j), ref, "matmul");
            }
    }
}

TEST(Matmul, TransposedBMatchesNaive)
{
    Pcg32 rng(43);
    for (auto [m, k, n] : {std::array<std::size_t, 3>{3, 5, 7},
                           {1, 9, 1},
                           {13, 21, 11},
                           {32, 6, 102}}) {
        Matrix a = randomMatrix(m, k, rng);
        Matrix b = randomMatrix(n, k, rng); // used as B^T
        Matrix c;
        a.matmulTransposed(b, c);
        ASSERT_EQ(c.rows(), m);
        ASSERT_EQ(c.cols(), n);
        for (std::size_t i = 0; i < m; i++)
            for (std::size_t j = 0; j < n; j++) {
                float ref = 0.0f;
                for (std::size_t kk = 0; kk < k; kk++)
                    ref += a(i, kk) * b(j, kk);
                expectClose(c(i, j), ref, "matmulTransposed");
            }
    }
}

TEST(Matmul, TransposedAAccumulates)
{
    Pcg32 rng(44);
    const std::size_t batch = 19, rows = 7, cols = 11;
    Matrix a = randomMatrix(batch, rows, rng);
    Matrix b = randomMatrix(batch, cols, rng);
    Matrix c = randomMatrix(rows, cols, rng);
    Matrix ref = c;
    a.transposedMatmulAdd(b, c, 0.5f);
    for (std::size_t i = 0; i < rows; i++)
        for (std::size_t j = 0; j < cols; j++) {
            float acc = ref(i, j);
            for (std::size_t r = 0; r < batch; r++)
                acc += 0.5f * a(r, i) * b(r, j);
            expectClose(c(i, j), acc, "transposedMatmulAdd");
        }
}

// ---------------------------------------------------------------------
// Bitwise kernel oracles: the training kernels were restructured for
// speed under the rule that every floating-point expression tree stays
// as it was. The previous bodies live on here as references, and the
// library kernels must reproduce their output bytes exactly — signed
// zeros, NaN payloads and all.
// ---------------------------------------------------------------------

const std::size_t kWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 20, 30, 102};
const std::size_t kBatches[] = {1, 3, 4, 5, 90, 127, 128};

/**
 * Byte equality of two float arrays, except that any NaN matches any
 * NaN. Which NaN an x86 add or multiply returns when both operands
 * are NaN (say an input NaN meeting the default NaN of 0 * Inf)
 * depends on the order the compiler emits the operands of a
 * commutative operation in, so NaN sign and payload are codegen
 * detail even for one unchanged expression tree; NaN-ness is not.
 */
bool
sameBytes(const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++) {
        if (std::isnan(a[i]) && std::isnan(b[i]))
            continue;
        if (std::memcmp(a + i, b + i, sizeof(float)) != 0)
            return false;
    }
    return true;
}

/**
 * Random matrix salted with the values the kernels must not launder:
 * signed zeros everywhere, whole 8-wide row blocks of (signed) zeros
 * when @p zeroBlocks, and Inf/NaN when @p nonFinite.
 */
Matrix
saltedMatrix(std::size_t rows, std::size_t cols, Pcg32 &rng,
             bool zeroBlocks, bool nonFinite)
{
    Matrix m = randomMatrix(rows, cols, rng);
    for (std::size_t i = 0; i < m.size(); i++) {
        const std::uint32_t roll = rng.nextBounded(64);
        if (roll == 0)
            m.data()[i] = 0.0f;
        else if (roll == 1)
            m.data()[i] = -0.0f;
        else if (nonFinite && roll == 2)
            m.data()[i] = std::numeric_limits<float>::infinity();
        else if (nonFinite && roll == 3)
            m.data()[i] = -std::numeric_limits<float>::infinity();
        else if (nonFinite && roll == 4)
            m.data()[i] = std::numeric_limits<float>::quiet_NaN();
    }
    if (zeroBlocks) {
        for (std::size_t r = 0; r < rows; r++)
            for (std::size_t b = 0; b + 8 <= cols; b += 8)
                if (rng.nextBool(0.5))
                    for (std::size_t u = 0; u < 8; u++)
                        m(r, b + u) = rng.nextBool(0.5) ? 0.0f : -0.0f;
    }
    return m;
}

/** The column-wise transposedMatmulAdd body the row-outer kernel
 *  replaced: c outermost, batch rows in 4-row groups then singly. */
void
columnWiseTransposedMatmulAdd(const Matrix &a, const Matrix &b, Matrix &out,
                              float scale)
{
    const std::size_t m = a.rows(), cols = a.cols(), n = b.cols();
    const float *adata = a.data();
    const float *bdata = b.data();
    float *odata = out.data();
    if (n <= 8) {
        for (std::size_t c = 0; c < cols; c++) {
            float *orow = odata + c * n;
            float acc[8] = {};
            for (std::size_t r = 0; r < m; r++) {
                const float av = adata[r * cols + c] * scale;
                const float *brow = bdata + r * n;
                for (std::size_t j = 0; j < n; j++)
                    acc[j] += av * brow[j];
            }
            for (std::size_t j = 0; j < n; j++)
                orow[j] += acc[j];
        }
        return;
    }
    for (std::size_t c = 0; c < cols; c++) {
        float *orow = odata + c * n;
        std::size_t r = 0;
        for (; r + 4 <= m; r += 4) {
            const float a0 = adata[r * cols + c] * scale;
            const float a1 = adata[(r + 1) * cols + c] * scale;
            const float a2 = adata[(r + 2) * cols + c] * scale;
            const float a3 = adata[(r + 3) * cols + c] * scale;
            const float *b0 = bdata + r * n;
            const float *b1 = b0 + n;
            const float *b2 = b1 + n;
            const float *b3 = b2 + n;
            for (std::size_t j = 0; j < n; j++)
                orow[j] += (a0 * b0[j] + a1 * b1[j]) +
                           (a2 * b2[j] + a3 * b3[j]);
        }
        for (; r < m; r++) {
            const float av = adata[r * cols + c] * scale;
            const float *brow = bdata + r * n;
            for (std::size_t j = 0; j < n; j++)
                orow[j] += av * brow[j];
        }
    }
}

TEST(KernelOracle, TransposedMatmulAddMatchesColumnWiseBitwise)
{
    Pcg32 rng(0x7A11);
    for (const std::size_t n : kWidths)
        for (const std::size_t batch : kBatches)
            for (const bool special : {false, true}) {
                const std::size_t cols = 1 + rng.nextBounded(40);
                Matrix a = saltedMatrix(batch, cols, rng, special, special);
                Matrix b = saltedMatrix(batch, n, rng, special, special);
                Matrix out = saltedMatrix(cols, n, rng, false, false);
                Matrix ref = out;
                const float scale = special ? 1.0f : 0.37f;
                a.transposedMatmulAdd(b, out, scale);
                columnWiseTransposedMatmulAdd(a, b, ref, scale);
                ASSERT_TRUE(sameBytes(out.data(), ref.data(), out.size()))
                    << "n=" << n << " batch=" << batch
                    << " cols=" << cols << " special=" << special;
            }
}

/** The per-row call pattern the batch-lane loss replaced: copy each
 *  row's logits and target out, call softmaxCrossEntropy(), add the
 *  weighted gradient into the row's gradient span. */
void
perRowCrossEntropy(const std::vector<const float *> &logits,
                   const std::vector<const float *> &targets,
                   const std::vector<float> &weights,
                   const std::vector<float *> &grad, std::size_t n,
                   std::vector<float> &loss)
{
    loss.resize(logits.size());
    Vector lv, tv, gv;
    for (std::size_t r = 0; r < logits.size(); r++) {
        lv.assign(logits[r], logits[r] + n);
        tv.assign(targets[r], targets[r] + n);
        loss[r] = softmaxCrossEntropy(lv, tv, gv);
        for (std::size_t k = 0; k < n; k++)
            grad[r][k] += gv[k] * weights[r];
    }
}

TEST(KernelOracle, CrossEntropyRowsMatchPerRowBitwise)
{
    Pcg32 rng(0x10C5);
    Vector tile;
    for (const std::size_t n : kWidths)
        for (const std::size_t batch : kBatches)
            for (const bool special : {false, true}) {
                // Logits scattered over a shared block, read in place
                // at arbitrary (possibly repeated) row offsets.
                Matrix logits = saltedMatrix(batch + 3, 2 * n, rng, special,
                                             special);
                for (std::size_t i = 0; i < logits.size(); i++)
                    logits.data()[i] *= 8.0f;
                Matrix targets(batch, n);
                for (std::size_t r = 0; r < batch; r++) {
                    // Soft targets: mostly zero, a few positive atoms.
                    for (std::size_t i = 0; i < n; i++)
                        targets(r, i) = rng.nextBool(0.3)
                            ? static_cast<float>(rng.nextDouble(0.0, 1.0))
                            : (rng.nextBool(0.5) ? 0.0f : -0.0f);
                    if (special && rng.nextBool(0.2))
                        targets(r, rng.nextBounded(
                                       static_cast<std::uint32_t>(n))) =
                            rng.nextBool(0.5)
                                ? std::numeric_limits<float>::quiet_NaN()
                                : std::numeric_limits<float>::infinity();
                }
                // Gradient rows: several sampled rows may share one
                // (folded duplicate states), in either action half.
                const std::size_t gradRows = 1 + batch / 2;
                Matrix grad = saltedMatrix(gradRows, 2 * n, rng, false,
                                           false);
                Matrix refGrad = grad;
                Matrix noLossGrad = grad;
                std::vector<const float *> lp(batch), tp(batch);
                std::vector<float *> gp(batch), refGp(batch),
                    noLossGp(batch);
                std::vector<float> w(batch);
                for (std::size_t r = 0; r < batch; r++) {
                    lp[r] = logits.row(rng.nextBounded(
                                static_cast<std::uint32_t>(batch + 3))) +
                        rng.nextBounded(static_cast<std::uint32_t>(n + 1));
                    tp[r] = targets.row(r);
                    const auto g = rng.nextBounded(
                        static_cast<std::uint32_t>(gradRows));
                    const std::size_t off = rng.nextBool(0.5) ? n : 0;
                    gp[r] = grad.row(g) + off;
                    refGp[r] = refGrad.row(g) + off;
                    noLossGp[r] = noLossGrad.row(g) + off;
                    w[r] = special
                        ? static_cast<float>(rng.nextDouble(0.0, 1.0))
                        : 1.0f;
                }
                std::vector<float> loss(batch), refLoss;
                softmaxCrossEntropyRows(lp.data(), tp.data(), w.data(),
                                        gp.data(), batch, n, loss.data(),
                                        tile);
                perRowCrossEntropy(lp, tp, w, refGp, n, refLoss);
                ASSERT_TRUE(
                    sameBytes(grad.data(), refGrad.data(), grad.size()))
                    << "n=" << n << " batch=" << batch
                    << " special=" << special;
                ASSERT_TRUE(sameBytes(loss.data(), refLoss.data(), batch))
                    << "n=" << n << " batch=" << batch
                    << " special=" << special;
                // Without a loss output: the same gradient bits.
                softmaxCrossEntropyRows(lp.data(), tp.data(), w.data(),
                                        noLossGp.data(), batch, n, nullptr,
                                        tile);
                ASSERT_TRUE(sameBytes(noLossGrad.data(), refGrad.data(),
                                      grad.size()))
                    << "null loss: n=" << n << " batch=" << batch
                    << " special=" << special;
            }
}

// ---------------------------------------------------------------------
// Batched layer forward/backward vs. the per-sample path, for every
// activation kind.
// ---------------------------------------------------------------------

class BatchedLayerTest : public ::testing::TestWithParam<Activation>
{
};

TEST_P(BatchedLayerTest, ForwardMatchesPerSample)
{
    Pcg32 rng(7);
    DenseLayer batched(9, 13, GetParam());
    batched.initWeights(rng);
    DenseLayer scalar(9, 13, GetParam());
    scalar.weights() = batched.weights();
    scalar.bias() = batched.bias();

    const std::size_t batch = 6;
    Pcg32 data(99);
    Matrix in = randomMatrix(batch, 9, data);
    Matrix out;
    batched.forward(in, out);
    ASSERT_EQ(out.rows(), batch);
    ASSERT_EQ(out.cols(), 13u);

    Vector x(9), y;
    for (std::size_t r = 0; r < batch; r++) {
        x.assign(in.row(r), in.row(r) + 9);
        scalar.forward(x, y);
        for (std::size_t c = 0; c < 13; c++)
            expectClose(out(r, c), y[c], activationName(GetParam()));
    }
}

TEST_P(BatchedLayerTest, BackwardMatchesPerSampleAccumulation)
{
    Pcg32 rng(8);
    DenseLayer batched(5, 8, GetParam());
    batched.initWeights(rng);
    DenseLayer scalar(5, 8, GetParam());
    scalar.weights() = batched.weights();
    scalar.bias() = batched.bias();

    const std::size_t batch = 7;
    Pcg32 data(123);
    Matrix in = randomMatrix(batch, 5, data);
    Matrix gradOut = randomMatrix(batch, 8, data);

    Matrix out, gradIn;
    batched.forward(in, out);
    batched.backward(gradOut, gradIn);
    ASSERT_EQ(gradIn.rows(), batch);
    ASSERT_EQ(gradIn.cols(), 5u);

    Vector x(5), y, g(8), gi;
    for (std::size_t r = 0; r < batch; r++) {
        x.assign(in.row(r), in.row(r) + 5);
        g.assign(gradOut.row(r), gradOut.row(r) + 8);
        scalar.forward(x, y);
        scalar.backward(g, gi);
        for (std::size_t c = 0; c < 5; c++)
            expectClose(gradIn(r, c), gi[c], "gradIn");
    }
    // Parameter gradients: batched accumulation == sum over samples.
    for (std::size_t i = 0; i < batched.gradWeights().size(); i++)
        expectClose(batched.gradWeights().data()[i],
                    scalar.gradWeights().data()[i], "gradW");
    for (std::size_t i = 0; i < 8; i++)
        expectClose(batched.gradBias()[i], scalar.gradBias()[i], "gradB");
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, BatchedLayerTest,
    ::testing::Values(Activation::Identity, Activation::ReLU,
                      Activation::Sigmoid, Activation::Tanh,
                      Activation::Swish),
    [](const auto &info) { return activationName(info.param); });

// ---------------------------------------------------------------------
// Whole-network equivalence.
// ---------------------------------------------------------------------

TEST(BatchedNetwork, ForwardBackwardMatchPerSample)
{
    Pcg32 rngA(11);
    Network batched(6,
                    {{20, Activation::Swish},
                     {30, Activation::Swish},
                     {4, Activation::Identity}},
                    rngA);
    Pcg32 rngB(12);
    Network scalar(6,
                   {{20, Activation::Swish},
                    {30, Activation::Swish},
                    {4, Activation::Identity}},
                   rngB);
    scalar.copyWeightsFrom(batched);

    const std::size_t batch = 16;
    Pcg32 data(3);
    Matrix in = randomMatrix(batch, 6, data);
    Matrix gradOut = randomMatrix(batch, 4, data);

    const Matrix &out = batched.forward(in);
    batched.backward(gradOut);

    Vector x(6), g(4);
    for (std::size_t r = 0; r < batch; r++) {
        x.assign(in.row(r), in.row(r) + 6);
        g.assign(gradOut.row(r), gradOut.row(r) + 4);
        const Vector &y = scalar.forward(x);
        for (std::size_t c = 0; c < 4; c++)
            expectClose(out(r, c), y[c], "net forward");
        scalar.backward(g);
    }
    for (std::size_t li = 0; li < batched.layers().size(); li++) {
        const Matrix &gb = batched.layers()[li].gradWeights();
        const Matrix &gs = scalar.layers()[li].gradWeights();
        for (std::size_t i = 0; i < gb.size(); i++)
            expectClose(gb.data()[i], gs.data()[i], "net gradW");
    }
}

TEST(BatchedNetwork, BatchOfOneMatchesVectorPath)
{
    Pcg32 rng(21);
    Network net(4, {{8, Activation::Swish}, {3, Activation::Identity}},
                rng);
    Pcg32 data(5);
    Matrix in = randomMatrix(1, 4, data);
    const Matrix &outM = net.forward(in);
    Vector x(in.data(), in.data() + 4);
    const Vector &outV = net.forward(x);
    for (std::size_t c = 0; c < 3; c++)
        expectClose(outM(0, c), outV[c], "batch-of-one");
}

} // namespace
} // namespace sibyl::ml

// ---------------------------------------------------------------------
// Agent-level equivalence: a full training round through the batched
// engine must match the legacy per-sample loop on identically seeded
// twin agents (same sampled indices, same math up to summation order).
// ---------------------------------------------------------------------

namespace sibyl::rl
{
namespace
{

void
fillBuffer(Agent &agent, const AgentConfig &cfg, std::uint64_t seed)
{
    Pcg32 data(seed);
    for (std::size_t i = 0; i < cfg.bufferCapacity; i++) {
        Experience e;
        e.state.resize(cfg.stateDim);
        e.nextState.resize(cfg.stateDim);
        for (auto &v : e.state)
            v = static_cast<float>(data.nextDouble(0.0, 1.0));
        for (auto &v : e.nextState)
            v = static_cast<float>(data.nextDouble(0.0, 1.0));
        e.action = data.nextBounded(cfg.numActions);
        e.reward = static_cast<float>(data.nextDouble(0.0, 2.0));
        agent.observe(std::move(e));
    }
}

/** The single-pass projection loop CategoricalSupport::project()
 *  had before it split into a landing pass and a scatter. */
void
singlePassProject(const CategoricalSupport &sup, const float *nextProbs,
                  double reward, double gamma, ml::Vector &target)
{
    const std::uint32_t atoms = sup.atoms();
    if (!std::isfinite(reward)) {
        target.assign(atoms, std::numeric_limits<float>::quiet_NaN());
        return;
    }
    target.assign(atoms, 0.0f);
    for (std::uint32_t i = 0; i < atoms; i++) {
        double p = nextProbs[i];
        if (p <= 0.0)
            continue;
        double tz = std::clamp(reward + gamma * sup.atomValue(i),
                               sup.vmin(), sup.vmax());
        double b = (tz - sup.vmin()) / sup.deltaZ();
        auto lo = static_cast<std::uint32_t>(std::floor(b));
        auto hi = static_cast<std::uint32_t>(std::ceil(b));
        lo = std::min(lo, atoms - 1);
        hi = std::min(hi, atoms - 1);
        if (lo == hi) {
            target[lo] += static_cast<float>(p);
        } else {
            target[lo] += static_cast<float>(p * (hi - b));
            target[hi] += static_cast<float>(p * (b - lo));
        }
    }
}

TEST(KernelOracle, ProjectMatchesSinglePassBitwise)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Pcg32 rng(0x9801);
    for (const std::uint32_t atoms : {2u, 3u, 8u, 31u, 51u, 64u, 65u, 102u,
                                      130u}) {
        const CategoricalSupport sup(0.0, 12.0, atoms);
        std::vector<double> rewards = {0.0, -0.0, 12.0, 1.0, -5.0, 40.0,
                                       sup.deltaZ(), inf, -inf, nan};
        for (int i = 0; i < 12; i++)
            rewards.push_back(rng.nextDouble(-3.0, 15.0));
        for (const double gamma : {0.9, 0.0, 1.0})
            for (const double reward : rewards)
                for (const bool special : {false, true}) {
                    ml::Vector probs(atoms);
                    for (auto &p : probs) {
                        p = static_cast<float>(rng.nextDouble(0.0, 1.0));
                        const std::uint32_t roll = rng.nextBounded(16);
                        if (roll == 0)
                            p = 0.0f;
                        else if (roll == 1)
                            p = -0.0f;
                        else if (special && roll == 2)
                            p = std::numeric_limits<float>::quiet_NaN();
                        else if (special && roll == 3)
                            p = std::numeric_limits<float>::infinity();
                        else if (special && roll == 4)
                            p = -0.25f;
                        else if (special && roll == 5)
                            p = std::numeric_limits<float>::denorm_min();
                    }
                    ml::Vector got, ref;
                    sup.project(probs, reward, gamma, got);
                    singlePassProject(sup, probs.data(), reward, gamma, ref);
                    ASSERT_EQ(got.size(), ref.size());
                    ASSERT_TRUE(ml::sameBytes(got.data(), ref.data(),
                                              got.size()))
                        << "atoms=" << atoms << " reward=" << reward
                        << " gamma=" << gamma << " special=" << special;
                }
    }
}

template <typename AgentT>
void
expectTwinTrainingMatches(AgentConfig cfg, double tol)
{
    // trainEvery larger than the fill so observe() never trains; the
    // round under test is the explicit trainRound() below.
    cfg.trainEvery = 10 * cfg.bufferCapacity;
    cfg.targetSyncEvery = 10 * cfg.bufferCapacity;

    AgentConfig perSampleCfg = cfg;
    perSampleCfg.batchedTraining = false;
    cfg.batchedTraining = true;

    AgentT batched(cfg);
    AgentT scalar(perSampleCfg);
    fillBuffer(batched, cfg, 77);
    fillBuffer(scalar, perSampleCfg, 77);

    const double lossB = batched.trainRound();
    const double lossS = scalar.trainRound();
    EXPECT_NEAR(lossB, lossS, tol * std::max(1.0, std::abs(lossS)));

    const auto pb = batched.trainingNetwork().saveParams();
    const auto ps = scalar.trainingNetwork().saveParams();
    ASSERT_EQ(pb.size(), ps.size());
    double maxDiff = 0.0;
    for (std::size_t i = 0; i < pb.size(); i++)
        maxDiff = std::max(maxDiff,
                           static_cast<double>(std::abs(pb[i] - ps[i])));
    EXPECT_LT(maxDiff, tol);
}

TEST(BatchedAgent, DqnMatchesPerSample)
{
    AgentConfig cfg;
    cfg.batchSize = 32;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 128;
    expectTwinTrainingMatches<DqnAgent>(cfg, 1e-4);
}

TEST(BatchedAgent, DoubleDqnMatchesPerSample)
{
    AgentConfig cfg;
    cfg.doubleDqn = true;
    cfg.batchSize = 32;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 128;
    expectTwinTrainingMatches<DqnAgent>(cfg, 1e-4);
}

TEST(BatchedAgent, DqnPrioritizedMatchesPerSample)
{
    AgentConfig cfg;
    cfg.prioritizedReplay = true;
    cfg.batchSize = 32;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 128;
    expectTwinTrainingMatches<DqnAgent>(cfg, 1e-4);
}

TEST(BatchedAgent, C51MatchesPerSample)
{
    AgentConfig cfg;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 64;
    expectTwinTrainingMatches<C51Agent>(cfg, 1e-4);
}

TEST(BatchedAgent, C51PrioritizedMatchesPerSample)
{
    AgentConfig cfg;
    cfg.prioritizedReplay = true;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 64;
    expectTwinTrainingMatches<C51Agent>(cfg, 1e-4);
}

// ---------------------------------------------------------------------
// Single-row inference contracts, for every activation, at odd widths
// and batch sizes that exercise every k-tail and row-tail:
//  (1) inferRow is BIT-identical (EXPECT_EQ on floats, no tolerance)
//      to the legacy per-sample forward — so routing selectAction
//      through it changes no decision, and the golden trajectories
//      pinned to the per-sample order stay put;
//  (2) every row of a batched infer is BIT-identical to the same row
//      inferred in any other batch (composition independence) — the
//      property the agents' Bellman-target caches rely on;
//  (3) inferRow agrees with the batched rows to float tolerance (the
//      batched kernels sum in a k-grouped order).
// ---------------------------------------------------------------------

class InferRowTest : public ::testing::TestWithParam<ml::Activation>
{
};

TEST_P(InferRowTest, RowContracts)
{
    const ml::Activation act = GetParam();
    Pcg32 rng(0x10F3);
    // Input widths cover the wide kernel's k8/k4/2-3/1 leftovers and
    // the narrow head path; layer widths cover n<=4 and wide j-tails.
    const std::size_t inputSizes[] = {3, 6, 9, 21, 23, 30, 33};
    for (std::size_t inSize : inputSizes) {
        ml::Network net(
            inSize,
            {{13, act}, {30, act}, {2, ml::Activation::Identity}}, rng);
        for (std::size_t batch : {1, 2, 3, 5, 8, 17}) {
            ml::Matrix in(batch, inSize);
            for (std::size_t i = 0; i < in.size(); i++)
                in.data()[i] =
                    static_cast<float>(rng.nextDouble(-2.0, 2.0));

            const ml::Matrix out = net.infer(in); // copy: rows compared
            for (std::size_t r = 0; r < batch; r++) {
                ml::Vector x(in.row(r), in.row(r) + inSize);

                // (2) composition independence: the same row through
                // a single-row batch.
                ml::Matrix single(1, inSize);
                std::copy(x.begin(), x.end(), single.row(0));
                const ml::Matrix &alone = net.infer(single);
                for (std::size_t j = 0; j < net.outputSize(); j++) {
                    ASSERT_EQ(alone(0, j), out(r, j))
                        << "batched row depends on batch composition: "
                        << "row " << r << " col " << j << " in="
                        << inSize << " batch=" << batch;
                }

                // (1) inferRow == forward(Vector), bit for bit; and
                // (3) both within tolerance of the batched row.
                const float *rowOut = net.inferRow(x);
                for (std::size_t j = 0; j < net.outputSize(); j++) {
                    const float a = rowOut[j], b = out(r, j);
                    const float tol = 1e-5f *
                        std::max({1.0f, std::abs(a), std::abs(b)});
                    ASSERT_NEAR(a, b, tol) << "row vs batched col " << j;
                }
                // inferRow clobbers its workspace on the next call;
                // compare against forward via copies.
                ml::Vector rowCopy(rowOut, rowOut + net.outputSize());
                const ml::Vector &fwd = net.forward(x);
                for (std::size_t j = 0; j < net.outputSize(); j++) {
                    ASSERT_EQ(rowCopy[j], fwd[j])
                        << "inferRow vs forward(Vector) col " << j;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, InferRowTest,
                         ::testing::Values(ml::Activation::Identity,
                                           ml::Activation::ReLU,
                                           ml::Activation::Sigmoid,
                                           ml::Activation::Tanh,
                                           ml::Activation::Swish));

TEST(InferRow, DoesNotDisturbPendingBackwardState)
{
    Pcg32 rng(0x5EED);
    ml::Network a(6, {{20, ml::Activation::Swish},
                      {2, ml::Activation::Identity}}, rng);
    Pcg32 rng2(0x5EED);
    ml::Network b(6, {{20, ml::Activation::Swish},
                      {2, ml::Activation::Identity}}, rng2);

    ml::Matrix in(4, 6);
    for (std::size_t i = 0; i < in.size(); i++)
        in.data()[i] = static_cast<float>(i) * 0.07f - 0.8f;
    ml::Matrix gradOut(4, 2, 0.3f);

    // a: forward, then an interleaved inferRow, then backward.
    a.forward(in);
    ml::Vector probe(6, 0.5f);
    a.inferRow(probe);
    a.backward(gradOut);

    // b: plain forward+backward. Gradients must match bit for bit.
    b.forward(in);
    b.backward(gradOut);
    for (std::size_t li = 0; li < a.layers().size(); li++) {
        const ml::Matrix &ga = a.layers()[li].gradWeights();
        const ml::Matrix &gb = b.layers()[li].gradWeights();
        for (std::size_t i = 0; i < ga.size(); i++)
            ASSERT_EQ(ga.data()[i], gb.data()[i]);
    }
}

// ---------------------------------------------------------------------
// Twin-agent decision equivalence: selectAction routes through
// inferRow, and its decisions must be identical to the reference
// computed from the legacy forward(Vector) output of the same frozen
// inference network — proved on trained (non-trivial) weights.
// ---------------------------------------------------------------------

TEST(RowDecisions, DqnSelectActionUnchanged)
{
    AgentConfig cfg;
    cfg.bufferCapacity = 200;
    cfg.batchSize = 32;
    cfg.batchesPerTraining = 2;
    cfg.trainEvery = 50;
    cfg.targetSyncEvery = 100;
    cfg.epsilon = 0.0; // deterministic: decisions are pure argmax
    DqnAgent agent(cfg);
    fillBuffer(agent, cfg, 400); // trains + syncs along the way

    Pcg32 rng(0xAB1E);
    for (int i = 0; i < 300; i++) {
        ml::Vector s(cfg.stateDim);
        for (auto &v : s)
            v = static_cast<float>(rng.nextDouble(0.0, 1.0));
        const ml::Vector &q = agent.inferenceNetwork().forward(s);
        const auto ref = static_cast<std::uint32_t>(
            std::max_element(q.begin(), q.end()) - q.begin());
        ASSERT_EQ(agent.selectAction(s), ref);
        ASSERT_EQ(agent.greedyAction(s), ref);
    }
}

TEST(RowDecisions, C51SelectActionUnchanged)
{
    AgentConfig cfg;
    cfg.bufferCapacity = 100;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 2;
    cfg.trainEvery = 50;
    cfg.targetSyncEvery = 100;
    cfg.epsilon = 0.0;
    C51Agent agent(cfg);
    fillBuffer(agent, cfg, 200);

    Pcg32 rng(0xAB1F);
    for (int i = 0; i < 200; i++) {
        ml::Vector s(cfg.stateDim);
        for (auto &v : s)
            v = static_cast<float>(rng.nextDouble(0.0, 1.0));
        // Reference: the legacy path — full forward, per-action
        // softmax + expectation, first-max argmax.
        const ml::Vector &out = agent.inferenceNetwork().forward(s);
        std::vector<double> q(cfg.numActions);
        for (std::uint32_t a = 0; a < cfg.numActions; a++) {
            ml::Vector dist(out.begin() + a * cfg.atoms,
                            out.begin() + (a + 1) * cfg.atoms);
            ml::softmax(dist);
            q[a] = agent.support().expectation(dist);
        }
        const auto ref = static_cast<std::uint32_t>(
            std::max_element(q.begin(), q.end()) - q.begin());
        ASSERT_EQ(agent.selectAction(s), ref);
        ASSERT_EQ(agent.greedyAction(s), ref);
    }
}

// ---------------------------------------------------------------------
// Training-path A/B: the Bellman-target cache must be a pure
// memoization (bit-identical parameters with it on or off), and
// duplicate-state folding must stay within summation-order tolerance.
// ---------------------------------------------------------------------

/** One coarse observation component: the fold test's quantizer,
 *  four levels per feature, so byte-identical observations recur. */
float
quantized(Pcg32 &rng)
{
    return static_cast<float>(rng.nextBounded(4)) * 0.25f;
}

/**
 * Drive a cache-on and a cache-off agent through the same stream and
 * require bit-identical parameters. With @p sharedNextStates the next
 * states come from a small pool of quantized observations, so many
 * replay entries share one next state (the C51 agent's per-sync
 * next-state memo path), and an explicit weight sync lands mid-stream
 * between cadence points to exercise its invalidation. A long
 * @p syncEvery lets distinct next states pile up between syncs past
 * bufferCapacity, so the C51 memo starts over mid-period.
 */
template <typename AgentT>
void
expectCacheIsPureMemoization(bool sharedNextStates,
                             std::uint32_t syncEvery = 90, int steps = 600)
{
    AgentConfig on;
    on.bufferCapacity = 150;
    on.batchSize = 32;
    on.batchesPerTraining = 2;
    on.trainEvery = 40;
    on.targetSyncEvery = syncEvery;
    AgentConfig off = on;
    on.cacheNextValues = true;
    off.cacheNextValues = false;

    AgentT a(on);
    AgentT b(off);
    Pcg32 data(0xCAFE);
    std::vector<ml::Vector> pool(12, ml::Vector(on.stateDim));
    for (auto &obs : pool)
        for (auto &v : obs)
            v = quantized(data);
    // Identical observation streams drive identical training rounds
    // (same seeds -> same sampling); duplicated adds also exercise
    // the ring-overwrite invalidation path.
    for (int i = 0; i < steps; i++) {
        Experience e;
        e.state.resize(on.stateDim);
        for (auto &v : e.state)
            v = sharedNextStates ? quantized(data)
                                 : static_cast<float>(
                                       data.nextDouble(0.0, 1.0));
        if (sharedNextStates) {
            e.nextState = pool[data.nextBounded(
                static_cast<std::uint32_t>(pool.size()))];
        } else {
            e.nextState.resize(on.stateDim);
            for (auto &v : e.nextState)
                v = static_cast<float>(data.nextDouble(0.0, 1.0));
        }
        e.action = data.nextBounded(on.numActions);
        e.reward = static_cast<float>(data.nextDouble(0.0, 2.0));
        Experience e2 = e;
        a.observe(std::move(e));
        b.observe(std::move(e2));
        if (sharedNextStates && i == 333) {
            a.syncWeights();
            b.syncWeights();
        }
    }
    EXPECT_GT(a.stats().trainingRounds, 0u);
    EXPECT_GT(a.stats().weightSyncs, 0u);

    const auto pa = a.trainingNetwork().saveParams();
    const auto pb = b.trainingNetwork().saveParams();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); i++)
        ASSERT_EQ(pa[i], pb[i]) << "param " << i
                                << ": target cache changed training";
}

TEST(TargetCache, DqnBitIdenticalOnOff)
{
    expectCacheIsPureMemoization<DqnAgent>(false);
}

TEST(TargetCache, C51BitIdenticalOnOff)
{
    expectCacheIsPureMemoization<C51Agent>(false);
}

TEST(TargetCache, C51MemoRestartBetweenSyncsBitIdenticalOnOff)
{
    // About 20 training rounds of fresh continuous next states before
    // the first sync at 1000: the memo fills its 150 rows and starts
    // over several times within one sync period.
    expectCacheIsPureMemoization<C51Agent>(false, 1000, 1500);
}

TEST(TargetCache, DqnSharedNextStatesBitIdenticalOnOff)
{
    expectCacheIsPureMemoization<DqnAgent>(true);
}

TEST(TargetCache, C51SharedNextStatesBitIdenticalOnOff)
{
    expectCacheIsPureMemoization<C51Agent>(true);
}

template <typename AgentT>
void
expectFoldWithinTolerance()
{
    AgentConfig on;
    on.bufferCapacity = 100;
    on.batchSize = 64; // heavy duplication via the quantizer below
    on.batchesPerTraining = 2;
    on.trainEvery = 10 * on.bufferCapacity;
    on.targetSyncEvery = 10 * on.bufferCapacity;
    AgentConfig off = on;
    on.foldDuplicateStates = true;
    off.foldDuplicateStates = false;

    AgentT a(on);
    AgentT b(off);
    Pcg32 data(0xF01D);
    for (std::size_t i = 0; i < on.bufferCapacity; i++) {
        Experience e;
        e.state.resize(on.stateDim);
        e.nextState.resize(on.stateDim);
        // Coarse quantization: plenty of byte-identical states.
        for (auto &v : e.state)
            v = quantized(data);
        for (auto &v : e.nextState)
            v = quantized(data);
        e.action = data.nextBounded(on.numActions);
        e.reward = static_cast<float>(data.nextDouble(0.0, 2.0));
        Experience e2 = e;
        a.observe(std::move(e));
        b.observe(std::move(e2));
    }
    a.trainRound();
    b.trainRound();

    const auto pa = a.trainingNetwork().saveParams();
    const auto pb = b.trainingNetwork().saveParams();
    ASSERT_EQ(pa.size(), pb.size());
    double maxDiff = 0.0;
    for (std::size_t i = 0; i < pa.size(); i++)
        maxDiff = std::max(maxDiff,
                           static_cast<double>(std::abs(pa[i] - pb[i])));
    EXPECT_LT(maxDiff, 1e-5) << "folded gradients drifted beyond "
                                "summation-order tolerance";
}

TEST(DuplicateFold, DqnWithinTolerance)
{
    expectFoldWithinTolerance<DqnAgent>();
}

TEST(DuplicateFold, C51WithinTolerance)
{
    expectFoldWithinTolerance<C51Agent>();
}

// ---------------------------------------------------------------------
// Exact training pin: the golden runs hold Sibyl only to a 5% band, so
// a drift in a single training bit would pass them. This drives a
// default-hyper-parameter C51 agent (6-20-30-102, 128 x 8 replays,
// folding and target cache on) through three training rounds and
// three weight syncs on a fixed quantized stream, and pins the
// trained parameters, and the last round's loss on an agent that
// measures it, bit for bit. Kernel rewrites must keep every
// floating-point expression tree, so these constants only move with
// a deliberate numerics change.
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < len; i++) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** Feed @p agent the pin's stream: 3500 quantized transitions. With
 *  @p actions, the agent also decides each state before observing its
 *  transition, and the decisions are appended there. */
void
feedPinStream(C51Agent &agent, std::vector<std::uint8_t> *actions = nullptr)
{
    const AgentConfig &cfg = agent.config();
    Pcg32 data(0x51B1);
    for (int i = 0; i < 3500; i++) {
        ml::Vector state(cfg.stateDim), next(cfg.stateDim);
        for (auto &v : state)
            v = quantized(data);
        for (auto &v : next)
            v = quantized(data);
        const std::uint32_t action = data.nextBounded(cfg.numActions);
        const auto reward = static_cast<float>(data.nextDouble(0.0, 2.0));
        if (actions)
            actions->push_back(
                static_cast<std::uint8_t>(agent.selectAction(state)));
        agent.observeTransition(state, action, reward, next);
    }
}

std::uint64_t
paramHash(const C51Agent &agent)
{
    const auto params = agent.trainingNetwork().saveParams();
    return fnv1a(params.data(), params.size() * sizeof(float));
}

TEST(TrainingPin, C51DefaultHyperParametersBitExact)
{
    AgentConfig cfg; // Table 2 defaults: trains and syncs every 1000
    C51Agent agent(cfg);
    feedPinStream(agent);
    ASSERT_EQ(agent.stats().trainingRounds, 3u);
    ASSERT_EQ(agent.stats().weightSyncs, 3u);
    ASSERT_EQ(agent.stats().gradientSteps, 3u * 8u * 128u);
    const std::uint64_t hash = paramHash(agent);
    EXPECT_EQ(hash, 0xacd929643335c1abULL) << std::hex << "params 0x" << hash;
    // Nothing reads a default agent's loss, so no round measures it.
    EXPECT_TRUE(std::isnan(agent.stats().lastLoss));

    AgentConfig armedCfg;
    armedCfg.measureLoss = true;
    C51Agent armed(armedCfg);
    feedPinStream(armed);
    EXPECT_EQ(paramHash(armed), hash);
    const auto lossBits = std::bit_cast<std::uint64_t>(armed.stats().lastLoss);
    EXPECT_EQ(lossBits, 0x400fe64417d80000ULL) << std::hex << "lastLoss 0x" << lossBits;
}

/** Measuring the loss changes no training or decision bit: twin
 *  default agents, one with a loss reader armed, decide and train on
 *  the pin's stream in lockstep. */
TEST(TrainingPin, LossReaderChangesNoTrainingBit)
{
    AgentConfig cfg;
    AgentConfig armedCfg = cfg;
    armedCfg.measureLoss = true;
    C51Agent plain(cfg);
    C51Agent armed(armedCfg);
    std::vector<std::uint8_t> plainActions, armedActions;
    feedPinStream(plain, &plainActions);
    feedPinStream(armed, &armedActions);
    ASSERT_EQ(plain.stats().trainingRounds, 3u);
    EXPECT_EQ(paramHash(plain), paramHash(armed));
    EXPECT_EQ(plainActions, armedActions);
    EXPECT_EQ(plain.stats().decisionMemoHits, armed.stats().decisionMemoHits);
    EXPECT_TRUE(std::isnan(plain.stats().lastLoss));
    EXPECT_TRUE(std::isfinite(armed.stats().lastLoss));
    EXPECT_GT(armed.stats().lastLoss, 0.0);

    // An explicit round is its own reader: it measures either way.
    const double a = plain.trainRound();
    const double b = armed.trainRound();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
    EXPECT_EQ(plain.stats().lastLoss, a);
    EXPECT_EQ(paramHash(plain), paramHash(armed));

    // Agents that read their own loss arm themselves.
    AgentConfig per;
    per.prioritizedReplay = true;
    AgentConfig vdbe;
    vdbe.exploration.kind = ExplorationKind::Vdbe;
    for (const AgentConfig &c : {per, vdbe}) {
        C51Agent self(c);
        feedPinStream(self);
        ASSERT_EQ(self.stats().trainingRounds, 3u);
        EXPECT_TRUE(std::isfinite(self.stats().lastLoss));
    }
}

// ---------------------------------------------------------------------
// Exact decision pin, the serving-side twin of the training pin: a
// default C51 agent decides every request of a quantized stream through
// selectAction (epsilon draw, inference row, categorical decode, per-sync
// greedy-decision memo) while it trains and syncs at the Table 2 cadence.
// The FNV-1a of the action sequence and of the final Q-value bits over a
// probe set only move with a deliberate numerics change.
// ---------------------------------------------------------------------

TEST(DecisionPin, C51DefaultGreedyActionsBitExact)
{
    AgentConfig cfg;
    C51Agent agent(cfg);
    Pcg32 data(0xDEC1);
    ml::Vector state(cfg.stateDim), prev(cfg.stateDim);
    std::uint32_t prevAction = 0;
    float prevReward = 0.0f;
    std::vector<std::uint8_t> actions;
    for (int i = 0; i < 4000; i++) {
        for (auto &v : state)
            v = quantized(data);
        if (i > 0)
            agent.observeTransition(prev, prevAction, prevReward, state);
        prevAction = agent.selectAction(state);
        actions.push_back(static_cast<std::uint8_t>(prevAction));
        // Action 1 pays on "cold" states, action 0 on "hot" ones, so the
        // learned policy is state-dependent rather than constant.
        const bool hot = state[0] + state[1] >= 0.75f;
        prevReward = static_cast<float>(
            (prevAction == (hot ? 0u : 1u) ? 1.5 : 0.25) +
            data.nextDouble(0.0, 0.5));
        prev = state;
    }
    ASSERT_GE(agent.stats().weightSyncs, 2u);
    ASSERT_EQ(agent.stats().decisions, actions.size());
    std::size_t ones = 0;
    for (const std::uint8_t a : actions)
        ones += a;
    ASSERT_GT(ones, 0u);
    ASSERT_LT(ones, actions.size());

    std::vector<double> q;
    Pcg32 probes(0x9B0B);
    for (int p = 0; p < 64; p++) {
        for (auto &v : state)
            v = quantized(probes);
        const std::vector<double> qs = agent.qValues(state);
        q.insert(q.end(), qs.begin(), qs.end());
    }
    const std::uint64_t actionHash = fnv1a(actions.data(), actions.size());
    const std::uint64_t qHash = fnv1a(q.data(), q.size() * sizeof(double));
    EXPECT_EQ(actionHash, 0xa43d722a50a1da0aULL)
        << std::hex << "actions 0x" << actionHash;
    EXPECT_EQ(qHash, 0xd4fc0670b54baadfULL)
        << std::hex << "qValues 0x" << qHash;
}

} // namespace
} // namespace sibyl::rl
