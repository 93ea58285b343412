/**
 * @file
 * Unit and property tests for the ML substrate: matrix kernels,
 * activations (with finite-difference gradient checks), losses, dense
 * layers, networks, and optimizers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "ml/activations.hh"
#include "ml/layers.hh"
#include "ml/loss.hh"
#include "ml/matrix.hh"
#include "ml/network.hh"
#include "ml/optimizer.hh"

namespace sibyl::ml
{
namespace
{

TEST(Matrix, MatVec)
{
    Matrix m(2, 3);
    // [1 2 3; 4 5 6] * [1 1 1]' = [6 15]'
    float v = 1.0f;
    for (std::size_t r = 0; r < 2; r++)
        for (std::size_t c = 0; c < 3; c++)
            m(r, c) = v++;
    Vector x = {1.0f, 1.0f, 1.0f}, y;
    m.matvec(x, y);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_FLOAT_EQ(y[0], 6.0f);
    EXPECT_FLOAT_EQ(y[1], 15.0f);
}

TEST(Matrix, MatVecTransposed)
{
    Matrix m(2, 3);
    float v = 1.0f;
    for (std::size_t r = 0; r < 2; r++)
        for (std::size_t c = 0; c < 3; c++)
            m(r, c) = v++;
    Vector x = {1.0f, 2.0f}, y;
    m.matvecTransposed(x, y);
    ASSERT_EQ(y.size(), 3u);
    EXPECT_FLOAT_EQ(y[0], 1.0f + 8.0f);
    EXPECT_FLOAT_EQ(y[1], 2.0f + 10.0f);
    EXPECT_FLOAT_EQ(y[2], 3.0f + 12.0f);
}

TEST(Matrix, AddOuter)
{
    Matrix m(2, 2, 1.0f);
    m.addOuter({1.0f, 2.0f}, {3.0f, 4.0f}, 0.5f);
    EXPECT_FLOAT_EQ(m(0, 0), 1.0f + 1.5f);
    EXPECT_FLOAT_EQ(m(1, 1), 1.0f + 4.0f);
}

TEST(Matrix, VectorHelpers)
{
    Vector a = {1.0f, 2.0f}, b = {3.0f, 4.0f};
    EXPECT_FLOAT_EQ(dot(a, b), 11.0f);
    axpy(a, b, 2.0f);
    EXPECT_FLOAT_EQ(b[0], 5.0f);
}

// ---------------------------------------------------------------------
// Activation property test: analytic derivative must match a central
// finite difference at a sweep of points, for every activation kind.
// ---------------------------------------------------------------------

class ActivationGradTest : public ::testing::TestWithParam<Activation>
{
};

TEST_P(ActivationGradTest, MatchesFiniteDifference)
{
    Activation a = GetParam();
    const float h = 1e-3f;
    for (float x = -4.0f; x <= 4.0f; x += 0.37f) {
        float numeric = (activate(a, x + h) - activate(a, x - h)) / (2 * h);
        float analytic = activateGrad(a, x);
        // ReLU is non-differentiable at 0; skip the kink.
        if (a == Activation::ReLU && std::abs(x) < 2 * h)
            continue;
        EXPECT_NEAR(analytic, numeric, 5e-3)
            << activationName(a) << " at x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, ActivationGradTest,
    ::testing::Values(Activation::Identity, Activation::ReLU,
                      Activation::Sigmoid, Activation::Tanh,
                      Activation::Swish),
    [](const auto &info) { return activationName(info.param); });

TEST(Softmax, SumsToOne)
{
    Vector v = {1.0f, 2.0f, 3.0f, -1.0f};
    softmax(v);
    float sum = 0.0f;
    for (float p : v) {
        EXPECT_GT(p, 0.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6);
    EXPECT_GT(v[2], v[0]);
}

TEST(Softmax, StableForLargeLogits)
{
    Vector v = {1000.0f, 1001.0f};
    softmax(v);
    EXPECT_FALSE(std::isnan(v[0]));
    EXPECT_NEAR(v[0] + v[1], 1.0f, 1e-6);
}

TEST(Loss, MseZeroAtTarget)
{
    Vector grad;
    EXPECT_FLOAT_EQ(mseLoss({1.0f, 2.0f}, {1.0f, 2.0f}, grad), 0.0f);
    EXPECT_FLOAT_EQ(grad[0], 0.0f);
}

TEST(Loss, MseGradientDirection)
{
    Vector grad;
    mseLoss({2.0f}, {1.0f}, grad);
    EXPECT_GT(grad[0], 0.0f); // pred too high -> positive gradient
}

TEST(Loss, SoftmaxCrossEntropyGradient)
{
    // Closed form: grad = softmax(logits) - target.
    Vector logits = {0.5f, -0.2f, 1.0f};
    Vector target = {0.2f, 0.3f, 0.5f};
    Vector grad;
    float loss = softmaxCrossEntropy(logits, target, grad);
    EXPECT_GT(loss, 0.0f);
    Vector probs = logits;
    softmax(probs);
    for (int i = 0; i < 3; i++)
        EXPECT_NEAR(grad[i], probs[i] - target[i], 1e-6);
}

TEST(Loss, BinaryCrossEntropy)
{
    float g = 0.0f;
    // Very confident correct prediction -> tiny loss, tiny gradient.
    float loss = binaryCrossEntropy(10.0f, 1.0f, g);
    EXPECT_LT(loss, 0.01f);
    EXPECT_NEAR(g, 0.0f, 0.01f);
    // Confident wrong prediction -> large loss, gradient toward target.
    loss = binaryCrossEntropy(10.0f, 0.0f, g);
    EXPECT_GT(loss, 5.0f);
    EXPECT_GT(g, 0.9f);
}

// ---------------------------------------------------------------------
// Network gradient check: backprop gradients of a small random network
// must match finite differences of the loss w.r.t. every parameter.
// ---------------------------------------------------------------------

TEST(Network, GradientCheck)
{
    Pcg32 rng(5);
    Network net(3, {{4, Activation::Swish}, {2, Activation::Identity}},
                rng);
    Vector x = {0.3f, -0.7f, 1.1f};
    Vector target = {0.7f, 0.3f};

    auto lossAt = [&]() {
        Vector g;
        return softmaxCrossEntropy(net.forward(x), target, g);
    };

    // Analytic gradients.
    Vector gradOut;
    softmaxCrossEntropy(net.forward(x), target, gradOut);
    net.clearGrads();
    net.forward(x);
    net.backward(gradOut);

    const float h = 1e-3f;
    for (auto &layer : net.layers()) {
        Matrix &gw = layer.gradWeights();
        // Spot-check a handful of weights per layer. Every mutation
        // goes through the weights() accessor so the layer's cached
        // W^T is invalidated before the next forward — the documented
        // mutation contract (the forward paths all read the cache).
        for (std::size_t i = 0; i < layer.weights().size(); i += 3) {
            float orig = layer.weights().data()[i];
            layer.weights().data()[i] = orig + h;
            float up = lossAt();
            layer.weights().data()[i] = orig - h;
            float down = lossAt();
            layer.weights().data()[i] = orig;
            float numeric = (up - down) / (2 * h);
            EXPECT_NEAR(gw.data()[i], numeric, 5e-3);
        }
    }
}

TEST(Network, CopyWeightsMakesOutputsIdentical)
{
    Pcg32 rng(5);
    Network a(4, {{8, Activation::Swish}, {3, Activation::Identity}}, rng);
    Network b(4, {{8, Activation::Swish}, {3, Activation::Identity}}, rng);
    Vector x = {0.1f, 0.2f, 0.3f, 0.4f};
    // Different random init -> different outputs.
    Vector ya = a.forward(x);
    Vector yb = b.forward(x);
    EXPECT_NE(ya, yb);
    b.copyWeightsFrom(a);
    EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(Network, SaveLoadRoundTrip)
{
    Pcg32 rng(5);
    Network a(4, {{6, Activation::Tanh}, {2, Activation::Identity}}, rng);
    Network b(4, {{6, Activation::Tanh}, {2, Activation::Identity}}, rng);
    auto params = a.saveParams();
    EXPECT_EQ(params.size(), a.paramCount());
    b.loadParams(params);
    Vector x = {1.0f, -1.0f, 0.5f, 0.0f};
    EXPECT_EQ(a.forward(x), b.forward(x));
    EXPECT_THROW(b.loadParams({1.0f}), std::invalid_argument);
}

TEST(Network, ParamCountMatchesPaperTopology)
{
    // The paper's network: 6 -> 20 -> 30 -> 2 has 780 weights (§10.1).
    Pcg32 rng(5);
    Network net(6,
                {{20, Activation::Swish},
                 {30, Activation::Swish},
                 {2, Activation::Identity}},
                rng);
    std::size_t weights = 6 * 20 + 20 * 30 + 30 * 2;
    std::size_t biases = 20 + 30 + 2;
    EXPECT_EQ(net.paramCount(), weights + biases);
}

TEST(Optimizer, AdamConvergesOnRegression)
{
    Pcg32 rng(5);
    Network net(3, {{8, Activation::Swish}, {1, Activation::Identity}},
                rng);
    Adam opt(1e-2);
    // Learn f(x) = x0 + 2*x1 - x2.
    Pcg32 data(17);
    double lastLoss = 0.0;
    for (int epoch = 0; epoch < 300; epoch++) {
        lastLoss = 0.0;
        for (int s = 0; s < 16; s++) {
            Vector x = {static_cast<float>(data.nextDouble(-1, 1)),
                        static_cast<float>(data.nextDouble(-1, 1)),
                        static_cast<float>(data.nextDouble(-1, 1))};
            Vector target = {x[0] + 2 * x[1] - x[2]};
            Vector grad;
            lastLoss += mseLoss(net.forward(x), target, grad);
            net.backward(grad);
        }
        opt.step(net, 16);
    }
    EXPECT_LT(lastLoss / 16, 0.01);
}

TEST(Optimizer, StepClearsGradients)
{
    Pcg32 rng(5);
    Network net(2, {{2, Activation::Identity}}, rng);
    Adam opt(0.1);
    Vector grad = {1.0f, 1.0f};
    const Vector x = {1.0f, 1.0f};
    net.forward(x);
    net.backward(grad);
    opt.step(net, 1);
    EXPECT_FLOAT_EQ(net.layers()[0].gradWeights()(0, 0), 0.0f);
}

} // namespace
} // namespace sibyl::ml
