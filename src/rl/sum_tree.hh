/**
 * @file
 * Sum tree (a.k.a. segment tree over priorities) for prioritized
 * experience replay (Schaul et al., 2016).
 *
 * The replay buffer's original sampler rebuilt an O(N) prefix-sum
 * array per batch and rescanned all priorities per importance weight.
 * This structure keeps the transformed priorities p_i^alpha in a
 * complete binary tree so that
 *
 *  - updating one leaf is O(log N),
 *  - drawing an index by inverse CDF is O(log N), and
 *  - the aggregates importance weights need — the total mass and the
 *    minimum leaf — are O(1) reads off the root of a paired min tree.
 */

#pragma once

#include <cstddef>
#include <vector>

namespace sibyl::rl
{

/** Fixed-capacity sum+min tree over non-negative leaf values. */
class SumTree
{
  public:
    SumTree() = default;
    explicit SumTree(std::size_t capacity);

    /** Leaves the tree can hold (buffer capacity). */
    std::size_t capacity() const { return capacity_; }

    /** Set leaf @p i to @p value, updating ancestors. O(log N). */
    void set(std::size_t i, double value);

    /** Current value of leaf @p i. O(1). */
    double value(std::size_t i) const;

    /** Sum over all leaves. O(1). */
    double total() const;

    /** Smallest value among *set* leaves (+inf when empty). O(1). */
    double minValue() const;

    /**
     * Index of the leaf whose cumulative-sum interval contains
     * @p prefix in [0, total()). O(log N). With all set leaves strictly
     * positive this is exactly the inverse-CDF draw a prefix-sum array
     * makes with lower_bound (tests/test_sum_tree.cc checks both).
     */
    std::size_t sample(double prefix) const;

    /** Reset every leaf to unset (sum 0 / min +inf). */
    void clear();

  private:
    std::size_t capacity_ = 0;
    std::size_t leafBase_ = 0;   // first leaf slot (power-of-two padded)
    std::vector<double> sum_;
    std::vector<double> min_;
};

} // namespace sibyl::rl
