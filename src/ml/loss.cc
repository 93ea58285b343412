#include "ml/loss.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/activations.hh"

namespace sibyl::ml
{

float
softmaxCrossEntropy(const Vector &logits, const Vector &target,
                    Vector &gradLogits)
{
    assert(logits.size() == target.size());
    // Softmax in place of the gradient buffer — no per-call
    // allocation (this runs once per sampled row in the C51 training
    // loop, the loop that bounds request throughput between syncs).
    // The loss accumulation itself keeps the historical per-element
    // form, NOT the cheaper log-softmax identity: the scalar feeds
    // PER priorities (setPriority), so changing its rounding would
    // silently shift prioritized-replay trajectories.
    gradLogits.assign(logits.begin(), logits.end());
    softmax(gradLogits);
    float loss = 0.0f;
    for (std::size_t i = 0; i < logits.size(); i++) {
        const float p = std::max(gradLogits[i], 1e-12f);
        // "!= 0" and not "> 0": identical for valid (non-negative)
        // targets, but a NaN target weight must reach the loss — a
        // poisoned reward that silently zeroes its own loss term
        // would corrupt the weights while reporting perfect health.
        if (target[i] != 0.0f)
            loss -= target[i] * std::log(p);
        gradLogits[i] -= target[i];
    }
    return loss;
}

void
softmaxCrossEntropyRows(const float *const *logits,
                        const float *const *targets, const float *weights,
                        float *const *grad, std::size_t rows, std::size_t n,
                        float *loss, Vector &tile)
{
    constexpr std::size_t kL = kSoftmaxLanes;
    tile.resize(n * kL);
    float *t = tile.data();
    for (std::size_t r0 = 0; r0 < rows; r0 += kL) {
        const std::size_t lanes = std::min(kL, rows - r0);
        for (std::size_t l = 0; l < kL; l++) {
            const float *in = l < lanes ? logits[r0 + l] : nullptr;
            for (std::size_t i = 0; i < n; i++)
                t[i * kL + l] = in ? in[i] : 0.0f;
        }
        softmaxLanes(t, n);
        for (std::size_t l = 0; l < lanes; l++) {
            const std::size_t r = r0 + l;
            const float *tgt = targets[r];
            const float w = weights[r];
            float *g = grad[r];
            for (std::size_t i = 0; i < n; i++)
                g[i] += (t[i * kL + l] - tgt[i]) * w;
            if (!loss)
                continue;
            float rowLoss = 0.0f;
            for (std::size_t i = 0; i < n; i++) {
                const float p = std::max(t[i * kL + l], 1e-12f);
                // Same "!= 0" rule as softmaxCrossEntropy().
                if (tgt[i] != 0.0f)
                    rowLoss -= tgt[i] * std::log(p);
            }
            loss[r] = rowLoss;
        }
    }
}

float
binaryCrossEntropy(float logit, float target, float &gradLogit)
{
    float p = 1.0f / (1.0f + std::exp(-logit));
    p = std::clamp(p, 1e-7f, 1.0f - 1e-7f);
    float loss = -(target * std::log(p) +
                   (1.0f - target) * std::log(1.0f - p));
    gradLogit = p - target;
    return loss;
}

} // namespace sibyl::ml
