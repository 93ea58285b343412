#include "ml/optimizer.hh"

#include <cmath>

namespace sibyl::ml
{

namespace
{

/**
 * Visit a layer's parameters as two flat (param*, grad*, count, offset)
 * spans — weights then bias. Span-at-a-time lets the update loop run
 * over __restrict pointers and auto-vectorize (including vsqrtps and
 * vdivps); the old one-lambda-per-element walk kept every step()
 * scalar, which at C51's ~4k parameters per step was one of the larger
 * costs of a training batch.
 */
template <typename Fn>
void
forEachParamSpan(DenseLayer &layer, Fn &&fn)
{
    Matrix &w = layer.weights();
    fn(w.data(), layer.gradWeights().data(), w.size(), std::size_t{0});
    fn(layer.bias().data(), layer.gradBias().data(), layer.bias().size(),
       w.size());
}

} // namespace

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps)
{
}

void
Adam::step(Network &net, std::size_t batchSize)
{
    if (batchSize == 0)
        batchSize = 1;
    float scale = 1.0f / static_cast<float>(batchSize);
    auto &layers = net.layers();
    if (m_.size() != layers.size()) {
        m_.assign(layers.size(), {});
        v_.assign(layers.size(), {});
        for (std::size_t i = 0; i < layers.size(); i++) {
            m_[i].assign(layers[i].paramCount(), 0.0f);
            v_[i].assign(layers[i].paramCount(), 0.0f);
        }
    }
    t_++;
    double corr1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    double corr2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    const float stepSize =
        static_cast<float>(lr_ * std::sqrt(corr2) / corr1);
    const float b1 = static_cast<float>(beta1_);
    const float b1c = static_cast<float>(1.0 - beta1_);
    const float b2 = static_cast<float>(beta2_);
    const float b2c = static_cast<float>(1.0 - beta2_);
    const float eps = static_cast<float>(eps_);

    for (std::size_t li = 0; li < layers.size(); li++) {
        float *__restrict mBase = m_[li].data();
        float *__restrict vBase = v_[li].data();
        forEachParamSpan(
            layers[li],
            [&](float *__restrict p, float *__restrict g, std::size_t n,
                std::size_t base) {
                float *__restrict m = mBase + base;
                float *__restrict v = vBase + base;
                // g[i] = 0 fuses clearGrads() into this single sweep.
#pragma GCC ivdep
                for (std::size_t i = 0; i < n; i++) {
                    const float grad = g[i] * scale;
                    g[i] = 0.0f;
                    m[i] = b1 * m[i] + b1c * grad;
                    v[i] = b2 * v[i] + b2c * grad * grad;
                    p[i] -= stepSize * m[i] / (std::sqrt(v[i]) + eps);
                }
            });
    }
}

} // namespace sibyl::ml
