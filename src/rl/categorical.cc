#include "rl/categorical.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "ml/activations.hh"
#include "ml/kernel_dispatch.hh"

namespace sibyl::rl
{

CategoricalSupport::CategoricalSupport(double vmin, double vmax,
                                       std::uint32_t atoms)
    : vmin_(vmin), vmax_(vmax), atoms_(atoms)
{
    if (atoms < 2 || vmax <= vmin)
        throw std::invalid_argument("CategoricalSupport: bad parameters");
    delta_ = (vmax - vmin) / static_cast<double>(atoms - 1);
}

double
CategoricalSupport::expectation(const ml::Vector &probs) const
{
    assert(probs.size() == atoms_);
    return expectation(probs.data());
}

double
CategoricalSupport::expectation(const float *probs) const
{
    double e = 0.0;
    for (std::uint32_t i = 0; i < atoms_; i++)
        e += static_cast<double>(probs[i]) * atomValue(i);
    return e;
}

void
CategoricalSupport::decode(const float *logits, std::uint32_t actions,
                           float *probs, double *q) const
{
    for (std::uint32_t a = 0; a < actions; a++) {
        float *p = probs + a * atoms_;
        std::copy(logits + a * atoms_, logits + (a + 1) * atoms_, p);
        ml::softmax(p, atoms_);
        q[a] = expectation(p);
    }
}

void
CategoricalSupport::project(const ml::Vector &nextProbs, double reward,
                            double gamma, ml::Vector &target) const
{
    assert(nextProbs.size() == atoms_);
    target.resize(atoms_);
    project(nextProbs.data(), reward, gamma, target.data());
}

namespace
{

/**
 * Landing pass of the projection for atoms [i0, i0 + n): where atom
 * i's Bellman-updated value falls on the support (lower/upper atom
 * and the two split weights). Depends only on reward and gamma, not
 * on the probabilities, and carries no control flow, so it
 * vectorizes. The double expressions must stay as they are:
 * tests/test_ml_batched.cc checks project() bit for bit against a
 * single-pass reference loop.
 */
SIBYL_KERNEL_CLONES
void
projectLanding(std::uint32_t i0, std::uint32_t n, double reward,
               double gamma, double vmin, double vmax, double delta,
               std::uint32_t atoms, std::uint32_t *__restrict lo,
               std::uint32_t *__restrict hi, double *__restrict wlo,
               double *__restrict whi)
{
    const auto last = static_cast<std::int32_t>(atoms - 1);
    for (std::uint32_t k = 0; k < n; k++) {
        const double z = vmin + delta * static_cast<double>(i0 + k);
        const double tz = std::clamp(reward + gamma * z, vmin, vmax);
        const double b = (tz - vmin) / delta;
        // b lies in [0, atoms - 1], so the int32 conversion is exact.
        const auto l = std::min(static_cast<std::int32_t>(std::floor(b)),
                                last);
        const auto h = std::min(static_cast<std::int32_t>(std::ceil(b)),
                                last);
        lo[k] = static_cast<std::uint32_t>(l);
        hi[k] = static_cast<std::uint32_t>(h);
        wlo[k] = static_cast<double>(h) - b;
        whi[k] = b - static_cast<double>(l);
    }
}

} // namespace

void
CategoricalSupport::project(const float *nextProbs, double reward,
                            double gamma, float *target) const
{
    // A non-finite reward must surface as a non-finite training loss,
    // not launder itself into a valid distribution: clamp(NaN) stays
    // NaN and the floor-then-cast below would be UB on it.
    if (!std::isfinite(reward)) {
        std::fill(target, target + atoms_,
                  std::numeric_limits<float>::quiet_NaN());
        return;
    }
    std::fill(target, target + atoms_, 0.0f);
    // Landing pass then scatter, a chunk of atoms at a time. The
    // scatter adds in ascending atom order and skips p <= 0; a NaN p
    // is not skipped, so it poisons its target atoms.
    constexpr std::uint32_t kChunk = 64;
    std::uint32_t lo[kChunk], hi[kChunk];
    double wlo[kChunk], whi[kChunk];
    for (std::uint32_t i0 = 0; i0 < atoms_; i0 += kChunk) {
        const std::uint32_t n = std::min(kChunk, atoms_ - i0);
        projectLanding(i0, n, reward, gamma, vmin_, vmax_, delta_, atoms_,
                       lo, hi, wlo, whi);
        for (std::uint32_t k = 0; k < n; k++) {
            const double p = nextProbs[i0 + k];
            if (p <= 0.0)
                continue;
            if (lo[k] == hi[k]) {
                target[lo[k]] += static_cast<float>(p);
            } else {
                target[lo[k]] += static_cast<float>(p * wlo[k]);
                target[hi[k]] += static_cast<float>(p * whi[k]);
            }
        }
    }
}

} // namespace sibyl::rl
