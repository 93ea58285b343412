#include "ml/activations.hh"

#include "ml/fast_exp.hh"
#include "ml/kernel_dispatch.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace sibyl::ml
{

namespace
{

float
sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

inline float
fastSigmoidf(float x)
{
    return 1.0f / (1.0f + fastExpf(-x));
}

inline float
fastTanhf(float x)
{
    // tanh(x) = 1 - 2/(e^(2x) + 1); ~2e-7 absolute error.
    return 1.0f - 2.0f / (fastExpf(2.0f * x) + 1.0f);
}

} // namespace

const char *
activationName(Activation a)
{
    switch (a) {
      case Activation::Identity: return "identity";
      case Activation::ReLU:     return "relu";
      case Activation::Sigmoid:  return "sigmoid";
      case Activation::Tanh:     return "tanh";
      case Activation::Swish:    return "swish";
    }
    return "?";
}

float
activate(Activation a, float x)
{
    switch (a) {
      case Activation::Identity:
        return x;
      case Activation::ReLU:
        return x > 0.0f ? x : 0.0f;
      case Activation::Sigmoid:
        return sigmoidf(x);
      case Activation::Tanh:
        return std::tanh(x);
      case Activation::Swish:
        return x * sigmoidf(x);
    }
    return x;
}

float
activateGrad(Activation a, float x)
{
    switch (a) {
      case Activation::Identity:
        return 1.0f;
      case Activation::ReLU:
        return x > 0.0f ? 1.0f : 0.0f;
      case Activation::Sigmoid: {
        float s = sigmoidf(x);
        return s * (1.0f - s);
      }
      case Activation::Tanh: {
        float t = std::tanh(x);
        return 1.0f - t * t;
      }
      case Activation::Swish: {
        // d/dx [x*s(x)] = s(x) + x*s(x)*(1-s(x))
        float s = sigmoidf(x);
        return s + x * s * (1.0f - s);
      }
    }
    return 1.0f;
}

void
activate(Activation a, const Vector &in, Vector &out)
{
    out.resize(in.size());
    activate(a, in.data(), out.data(), in.size());
}

namespace
{

SIBYL_KERNEL_CLONES
void
activateSpanImpl(Activation a, const float *in, float *out, std::size_t n)
{
    switch (a) {
      case Activation::Identity:
        if (out != in)
            std::copy(in, in + n, out);
        break;
      case Activation::ReLU:
        for (std::size_t i = 0; i < n; i++)
            out[i] = in[i] > 0.0f ? in[i] : 0.0f;
        break;
      case Activation::Sigmoid:
        for (std::size_t i = 0; i < n; i++)
            out[i] = fastSigmoidf(in[i]);
        break;
      case Activation::Tanh:
        for (std::size_t i = 0; i < n; i++)
            out[i] = fastTanhf(in[i]);
        break;
      case Activation::Swish:
        for (std::size_t i = 0; i < n; i++)
            out[i] = in[i] * fastSigmoidf(in[i]);
        break;
    }
}

} // namespace

void
activate(Activation a, const float *in, float *out, std::size_t n)
{
    activateSpanImpl(a, in, out, n);
}

namespace
{

SIBYL_KERNEL_CLONES
void
activateGradMulImpl(Activation a, const float *pre, const float *gradOut,
                float *delta, std::size_t n)
{
    switch (a) {
      case Activation::Identity:
        if (delta != gradOut)
            std::copy(gradOut, gradOut + n, delta);
        break;
      case Activation::ReLU:
        for (std::size_t i = 0; i < n; i++)
            delta[i] = pre[i] > 0.0f ? gradOut[i] : 0.0f;
        break;
      case Activation::Sigmoid:
        for (std::size_t i = 0; i < n; i++) {
            const float s = fastSigmoidf(pre[i]);
            delta[i] = gradOut[i] * s * (1.0f - s);
        }
        break;
      case Activation::Tanh:
        for (std::size_t i = 0; i < n; i++) {
            const float t = fastTanhf(pre[i]);
            delta[i] = gradOut[i] * (1.0f - t * t);
        }
        break;
      case Activation::Swish:
        for (std::size_t i = 0; i < n; i++) {
            const float s = fastSigmoidf(pre[i]);
            delta[i] = gradOut[i] * (s + pre[i] * s * (1.0f - s));
        }
        break;
    }
}

} // namespace

void
activateGradMul(Activation a, const float *pre, const float *gradOut,
                float *delta, std::size_t n)
{
    activateGradMulImpl(a, pre, gradOut, delta, n);
}

namespace
{

SIBYL_KERNEL_CLONES
void
activateWithAuxImpl(Activation a, const float *in, float *out, float *aux,
                std::size_t n)
{
    switch (a) {
      case Activation::Identity:
      case Activation::ReLU:
        activate(a, in, out, n);
        break;
      case Activation::Sigmoid:
        for (std::size_t i = 0; i < n; i++) {
            const float s = fastSigmoidf(in[i]);
            out[i] = s;
            aux[i] = s;
        }
        break;
      case Activation::Tanh:
        for (std::size_t i = 0; i < n; i++) {
            const float t = fastTanhf(in[i]);
            out[i] = t;
            aux[i] = t;
        }
        break;
      case Activation::Swish:
        for (std::size_t i = 0; i < n; i++) {
            const float s = fastSigmoidf(in[i]);
            out[i] = in[i] * s;
            aux[i] = s;
        }
        break;
    }
}

} // namespace

void
activateWithAux(Activation a, const float *in, float *out, float *aux,
                std::size_t n)
{
    activateWithAuxImpl(a, in, out, aux, n);
}

namespace
{

SIBYL_KERNEL_CLONES
void
activateGradMulAuxImpl(Activation a, const float *pre, const float *aux,
                   const float *gradOut, float *delta, std::size_t n)
{
    switch (a) {
      case Activation::Identity:
      case Activation::ReLU:
        activateGradMul(a, pre, gradOut, delta, n);
        break;
      case Activation::Sigmoid:
        for (std::size_t i = 0; i < n; i++) {
            const float s = aux[i];
            delta[i] = gradOut[i] * s * (1.0f - s);
        }
        break;
      case Activation::Tanh:
        for (std::size_t i = 0; i < n; i++) {
            const float t = aux[i];
            delta[i] = gradOut[i] * (1.0f - t * t);
        }
        break;
      case Activation::Swish:
        for (std::size_t i = 0; i < n; i++) {
            const float s = aux[i];
            delta[i] = gradOut[i] * (s + pre[i] * s * (1.0f - s));
        }
        break;
    }
}

} // namespace

void
activateGradMulAux(Activation a, const float *pre, const float *aux,
                   const float *gradOut, float *delta, std::size_t n)
{
    activateGradMulAuxImpl(a, pre, aux, gradOut, delta, n);
}

void
activate(Activation a, const Matrix &in, Matrix &out)
{
    out.resize(in.rows(), in.cols());
    activate(a, in.data(), out.data(), in.size());
}

void
softmax(Vector &v)
{
    softmax(v.data(), v.size());
}

namespace
{

/** Exponentiation sweep of softmax: v[i] = exp(v[i] - mx). Hoisted
 *  out of the sum so the loop carries no reduction and vectorizes —
 *  the fused exp+accumulate form ran scalar, and softmax was the
 *  single largest cost of a C51 training batch (one 51-wide call per
 *  action group per row). */
SIBYL_KERNEL_CLONES
void
softmaxExp(float *v, float mx, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++)
        v[i] = fastExpf(v[i] - mx);
}

/** Normalization sweep of softmax (elementwise, vectorizes). */
SIBYL_KERNEL_CLONES
void
softmaxScale(float *v, float sum, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++)
        v[i] /= sum;
}

SIBYL_KERNEL_CLONES
void
softmaxLanesImpl(float *__restrict tile, std::size_t n)
{
    constexpr std::size_t kL = kSoftmaxLanes;
    float mx[kL], sum[kL];
    for (std::size_t l = 0; l < kL; l++)
        mx[l] = tile[l];
    for (std::size_t i = 1; i < n; i++)
        for (std::size_t l = 0; l < kL; l++) {
            // std::max_element's test: a later element wins only
            // when strictly greater.
            const float v = tile[i * kL + l];
            mx[l] = mx[l] < v ? v : mx[l];
        }
    for (std::size_t i = 0; i < n; i++)
        for (std::size_t l = 0; l < kL; l++)
            tile[i * kL + l] = fastExpf(tile[i * kL + l] - mx[l]);
    for (std::size_t l = 0; l < kL; l++)
        sum[l] = 0.0f;
    for (std::size_t i = 0; i < n; i++)
        for (std::size_t l = 0; l < kL; l++)
            sum[l] += tile[i * kL + l];
    for (std::size_t l = 0; l < kL; l++)
        sum[l] = sum[l] <= 0.0f ? 1.0f : sum[l];
    for (std::size_t i = 0; i < n; i++)
        for (std::size_t l = 0; l < kL; l++)
            tile[i * kL + l] /= sum[l];
}

} // namespace

void
softmax(float *v, std::size_t n)
{
    if (n == 0)
        return;
    float mx = *std::max_element(v, v + n);
    softmaxExp(v, mx, n);
    // Sequential sum, same order as the historical fused loop: the
    // split changes instruction scheduling, never a result bit.
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; i++)
        sum += v[i];
    if (sum <= 0.0f)
        sum = 1.0f;
    softmaxScale(v, sum, n);
}

void
softmaxLanes(float *tile, std::size_t n)
{
    softmaxLanesImpl(tile, n);
}

} // namespace sibyl::ml
