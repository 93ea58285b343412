/**
 * @file
 * Observation-keyed row table: the lookup half of the C51 agent's
 * per-sync memos (greedy decisions and next-state distributions).
 */

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "rl/agent.hh"

namespace sibyl::rl
{

/**
 * A bounded set of distinct observations, each given a dense row index
 * in insertion order; the caller keeps what it memoizes per observation
 * in its own row-indexed storage. Linear-probe slots sized to at least
 * twice the row bound (key 0 = empty); a hash hit is verified against
 * the stored observation with memcmp, so two observations share a row
 * only when byte-identical. Storage is allocated once; the observation
 * rows are left uninitialized, so only the rows a run fills cost
 * resident memory. Starting over (clear) is O(slots).
 */
class ObservationTable
{
  public:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    /** Where find() looked: the observation's row (kNone if absent),
     *  and the slot and key insert() fills for an absent one. */
    struct Probe
    {
        std::uint32_t row;
        std::size_t slot;
        std::uint64_t key;
    };

    /** Size for at most @p rows observations of @p dim floats. */
    void
    allocate(std::size_t rows, std::size_t dim)
    {
        rows_ = std::max<std::size_t>(rows, 1);
        dim_ = dim;
        obs_ = std::make_unique_for_overwrite<float[]>(rows_ * dim_);
        std::size_t slots = 16;
        while (slots < 2 * rows_)
            slots <<= 1;
        keys_.assign(slots, 0);
        vals_.assign(slots, 0);
        count_ = 0;
    }

    std::size_t capacity() const { return rows_; }
    std::size_t size() const { return count_; }
    bool full() const { return count_ == rows_; }

    /** Forget every observation. */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), 0);
        count_ = 0;
    }

    Probe
    find(const float *obs) const
    {
        std::uint64_t key = hashObservation(obs, dim_);
        key += key == 0; // 0 is the empty-slot sentinel
        const std::size_t mask = keys_.size() - 1;
        std::size_t slot = key & mask;
        while (keys_[slot] != 0) {
            if (keys_[slot] == key &&
                std::memcmp(observation(vals_[slot]), obs,
                            dim_ * sizeof(float)) == 0)
                return {vals_[slot], slot, key};
            slot = (slot + 1) & mask;
        }
        return {kNone, slot, key};
    }

    /** Give @p obs, absent per @p p (its find() result), the next row.
     *  The table must not be full. */
    std::uint32_t
    insert(const Probe &p, const float *obs)
    {
        assert(p.row == kNone && count_ < rows_);
        const auto row = static_cast<std::uint32_t>(count_++);
        keys_[p.slot] = p.key;
        vals_[p.slot] = row;
        std::copy(obs, obs + dim_, obs_.get() + row * dim_);
        return row;
    }

    /** The observation stored at @p row. */
    const float *
    observation(std::uint32_t row) const
    {
        return obs_.get() + row * dim_;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t dim_ = 0;
    std::size_t count_ = 0;
    std::unique_ptr<float[]> obs_; // dim floats per row
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> vals_;
};

} // namespace sibyl::rl
