#include "ml/loss.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/activations.hh"
#include "ml/fast_exp.hh"
#include "ml/kernel_dispatch.hh"

namespace sibyl::ml
{

float
mseLoss(const Vector &pred, const Vector &target, Vector &grad)
{
    assert(pred.size() == target.size());
    grad.resize(pred.size());
    float loss = 0.0f;
    float n = static_cast<float>(pred.size());
    for (std::size_t i = 0; i < pred.size(); i++) {
        float d = pred[i] - target[i];
        loss += d * d;
        grad[i] = 2.0f * d / n;
    }
    return loss / n;
}

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

namespace
{

constexpr std::size_t kLossLanes = 8;

/**
 * In-place softmax of kLossLanes rows held lane-major in @p tile
 * (entry i of lane l at tile[i * kLossLanes + l]). Per lane this is
 * softmax(float *, n) step for step: first-max scan, exp(v - max),
 * sequential sum with the <= 0 guard, divide — only the lanes
 * advance together.
 */
SIBYL_KERNEL_CLONES
void
softmaxLanes(float *__restrict tile, std::size_t n)
{
    float mx[kLossLanes], sum[kLossLanes];
    for (std::size_t l = 0; l < kLossLanes; l++)
        mx[l] = tile[l];
    for (std::size_t i = 1; i < n; i++)
        for (std::size_t l = 0; l < kLossLanes; l++) {
            // std::max_element's test: a later element wins only
            // when strictly greater.
            const float v = tile[i * kLossLanes + l];
            mx[l] = mx[l] < v ? v : mx[l];
        }
    for (std::size_t i = 0; i < n; i++)
        for (std::size_t l = 0; l < kLossLanes; l++)
            tile[i * kLossLanes + l] =
                fastExpf(tile[i * kLossLanes + l] - mx[l]);
    for (std::size_t l = 0; l < kLossLanes; l++)
        sum[l] = 0.0f;
    for (std::size_t i = 0; i < n; i++)
        for (std::size_t l = 0; l < kLossLanes; l++)
            sum[l] += tile[i * kLossLanes + l];
    for (std::size_t l = 0; l < kLossLanes; l++)
        sum[l] = sum[l] <= 0.0f ? 1.0f : sum[l];
    for (std::size_t i = 0; i < n; i++)
        for (std::size_t l = 0; l < kLossLanes; l++)
            tile[i * kLossLanes + l] /= sum[l];
}

} // namespace

void
softmaxCrossEntropyRows(const float *const *logits,
                        const float *const *targets, const float *weights,
                        float *const *grad, std::size_t rows, std::size_t n,
                        float *loss, Vector &tile)
{
    tile.resize(n * kLossLanes);
    float *t = tile.data();
    for (std::size_t r0 = 0; r0 < rows; r0 += kLossLanes) {
        const std::size_t lanes = std::min(kLossLanes, rows - r0);
        for (std::size_t l = 0; l < kLossLanes; l++) {
            const float *in = l < lanes ? logits[r0 + l] : nullptr;
            for (std::size_t i = 0; i < n; i++)
                t[i * kLossLanes + l] = in ? in[i] : 0.0f;
        }
        softmaxLanes(t, n);
        for (std::size_t l = 0; l < lanes; l++) {
            const std::size_t r = r0 + l;
            const float *tgt = targets[r];
            const float w = weights[r];
            float *g = grad[r];
            float rowLoss = 0.0f;
            for (std::size_t i = 0; i < n; i++) {
                const float q = t[i * kLossLanes + l];
                const float p = std::max(q, 1e-12f);
                // Same "!= 0" rule as softmaxCrossEntropy().
                if (tgt[i] != 0.0f)
                    rowLoss -= tgt[i] * std::log(p);
                g[i] += (q - tgt[i]) * w;
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
