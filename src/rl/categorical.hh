/**
 * @file
 * Categorical (C51) value-distribution support and Bellman projection.
 *
 * Sibyl uses a Categorical Deep Q-Network (Bellemare et al., 2017): the
 * network predicts, for each action, a probability distribution over a
 * fixed support of return values ("atoms") instead of a single Q-value.
 * The distributional Bellman update r + gamma*z lands between atoms, so
 * the target distribution is projected back onto the support.
 */

#pragma once

#include <cstdint>

#include "ml/matrix.hh"

namespace sibyl::rl
{

/** Fixed return-value support z_0..z_{N-1}. */
class CategoricalSupport
{
  public:
    /**
     * @param vmin  Smallest representable return.
     * @param vmax  Largest representable return.
     * @param atoms Number of atoms (51 in C51).
     */
    CategoricalSupport(double vmin, double vmax, std::uint32_t atoms);

    double vmin() const { return vmin_; }
    double vmax() const { return vmax_; }
    std::uint32_t atoms() const { return atoms_; }
    double deltaZ() const { return delta_; }

    /** Value of atom @p i. */
    double atomValue(std::uint32_t i) const
    {
        return vmin_ + delta_ * static_cast<double>(i);
    }

    /** Expected value of a probability vector over this support. */
    double expectation(const ml::Vector &probs) const;

    /** Span variant: expected value of @p probs[0..atoms). */
    double expectation(const float *probs) const;

    /**
     * Project the Bellman-updated distribution onto this support:
     * target[j] accumulates nextProbs[i] mass at clamp(r + gamma*z_i).
     *
     * @param nextProbs Next-state distribution (atoms entries).
     * @param reward    Immediate reward r.
     * @param gamma     Discount factor.
     * @param target    Output distribution (resized to atoms).
     */
    void project(const ml::Vector &nextProbs, double reward, double gamma,
                 ml::Vector &target) const;

    /** Span variant of project(): reads atoms entries at @p nextProbs
     *  and writes atoms entries at @p target (no aliasing). */
    void project(const float *nextProbs, double reward, double gamma,
                 float *target) const;

  private:
    double vmin_;
    double vmax_;
    std::uint32_t atoms_;
    double delta_;
};

} // namespace sibyl::rl
