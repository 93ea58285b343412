/**
 * @file
 * Activation functions for the dense layers.
 *
 * The paper uses the swish activation (x * sigmoid(x)) for all hidden
 * layers of Sibyl's networks because it outperformed ReLU in their design
 * exploration (§6.2.2). We also provide ReLU/sigmoid/tanh/identity for the
 * baseline models (Archivist classifier, RNN-HSS) and for ablations.
 */

#pragma once

#include "ml/matrix.hh"

namespace sibyl::ml
{

/** Supported activation kinds. */
enum class Activation
{
    Identity,
    ReLU,
    Sigmoid,
    Tanh,
    Swish,
};

/** Human-readable name. */
const char *activationName(Activation a);

/** Scalar forward evaluation. */
float activate(Activation a, float x);

/**
 * Scalar derivative d(out)/d(pre-activation), expressed in terms of the
 * pre-activation @p x (all supported activations are cheap to re-derive
 * from the pre-activation value).
 */
float activateGrad(Activation a, float x);

/** Vectorized forward: out[i] = f(in[i]). Resizes @p out. */
void activate(Activation a, const Vector &in, Vector &out);

/** Span forward: out[i] = f(in[i]) for i in [0, n). May alias. */
void activate(Activation a, const float *in, float *out, std::size_t n);

/**
 * Fused backward pointwise step over a span:
 * delta[i] = gradOut[i] * f'(pre[i]). One pass instead of a derivative
 * sweep plus a multiply sweep — this runs once per layer per batch in
 * the training hot loop.
 */
void activateGradMul(Activation a, const float *pre, const float *gradOut,
                     float *delta, std::size_t n);

/**
 * Forward that additionally stashes the transcendental intermediate —
 * sigmoid(in) for Sigmoid/Swish, tanh(in) for Tanh — into @p aux
 * (untouched for Identity/ReLU). activateGradMulAux() then derives the
 * gradient from @p aux instead of re-evaluating exp/div in backward,
 * halving the transcendental cost of a training batch.
 */
void activateWithAux(Activation a, const float *in, float *out, float *aux,
                     std::size_t n);

/** Backward companion of activateWithAux():
 *  delta[i] = gradOut[i] * f'(pre[i]) computed from the cached aux. */
void activateGradMulAux(Activation a, const float *pre, const float *aux,
                        const float *gradOut, float *delta, std::size_t n);

/** Whole-batch forward: out = f(in) element-wise. Resizes @p out. */
void activate(Activation a, const Matrix &in, Matrix &out);

/** In-place numerically stable softmax. */
void softmax(Vector &v);

/** In-place softmax over a raw span (batched C51 head groups). */
void softmax(float *v, std::size_t n);

/** Rows softmaxLanes() advances together. */
inline constexpr std::size_t kSoftmaxLanes = 8;

/**
 * In-place softmax of kSoftmaxLanes rows of @p n entries held
 * lane-major in @p tile (entry i of lane l at
 * tile[i * kSoftmaxLanes + l]). Per lane this is softmax(float *, n)
 * step for step: first-max scan, exp(v - max), sequential sum with
 * the <= 0 guard, divide; only the lanes advance together, so every
 * lane's bits equal the per-row call's. The one lane softmax of the
 * cross-entropy and the C51 target decode.
 */
void softmaxLanes(float *tile, std::size_t n);

} // namespace sibyl::ml
