/**
 * @file
 * Branch-free polynomial expf shared by the activation sweeps and the
 * batch-lane softmax cross-entropy (internal). One definition, so the
 * softmax inside the loss kernel rounds exactly like ml::softmax().
 */

#pragma once

#include <bit>
#include <cstdint>

namespace sibyl::ml
{

/**
 * Branch-free polynomial expf (Cephes-style, ~2e-7 relative error).
 * Every operation — the FMA chain, the magic-number round-to-nearest,
 * the integer exponent clamp, and the bit-cast 2^n scale — maps onto
 * baseline SSE2 instructions, so GCC auto-vectorizes the batched
 * activation sweeps that call it. libm's expf is branchy and keeps
 * those loops scalar, which capped the batched training engine's
 * speedup before this kernel existed. (A float-domain input clamp
 * would reintroduce control flow GCC refuses to if-convert without
 * -ffast-math, hence the clamp on the integer exponent instead:
 * out-of-range inputs saturate to ~2^-126 / ~2^127 rather than 0/inf,
 * which every consumer — sigmoid, swish, softmax — treats the same.
 * Inputs beyond |x| ~ 5.8e6 would overflow the rounding trick, far
 * outside any finite network pre-activation this code ever sees.)
 */
inline float
fastExpf(float x)
{
    constexpr float kLog2e = 1.44269504088896341f;
    constexpr float kLn2Hi = 0.693359375f;
    constexpr float kLn2Lo = -2.12194440e-4f;
    constexpr float kRound = 12582912.0f; // 1.5 * 2^23
    constexpr std::int32_t kRoundBits = 0x4B400000;

    // Round x*log2(e) to the nearest integer n without cvt/floor: adding
    // 1.5*2^23 pins the float's exponent so the mantissa's low bits ARE
    // the integer, in round-to-nearest-even mode.
    const float t = x * kLog2e + kRound;
    const float n = t - kRound;
    std::int32_t i = std::bit_cast<std::int32_t>(t) - kRoundBits;
    i = i < -126 ? -126 : i;
    i = i > 127 ? 127 : i;

    // exp(x) = 2^n * exp(r), r = x - n*ln2 in [-ln2/2, ln2/2].
    float r = x - n * kLn2Hi;
    r -= n * kLn2Lo;
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * r * r + r + 1.0f;

    const float scale = std::bit_cast<float>((i + 127) << 23); // 2^n
    return p * scale;
}

} // namespace sibyl::ml
