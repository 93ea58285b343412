/**
 * @file
 * Small dense linear-algebra kernels for the ML substrate.
 *
 * The networks in this project are tiny (Sibyl's is 6-20-30-|A|x51), so we
 * favor a simple, cache-friendly row-major matrix with hand-rolled loops
 * over an external BLAS. Everything is float32; the paper stores weights
 * in fp16 for its overhead accounting, which we reproduce analytically in
 * the overhead bench.
 */

#pragma once

#include <cstddef>
#include <vector>

namespace sibyl::ml
{

using Vector = std::vector<float>;

/** Row-major dense matrix of float32. */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    float &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    float operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Set every element to @p v. */
    void fill(float v);

    /**
     * Reshape to rows x cols, preserving nothing. Reuses the existing
     * allocation when capacity suffices, so per-batch reshaping in the
     * training hot loop is allocation-free at steady state.
     */
    void resize(std::size_t rows, std::size_t cols);

    /** Pointer to the start of row @p r. */
    float *row(std::size_t r) { return data_.data() + r * cols_; }
    const float *row(std::size_t r) const { return data_.data() + r * cols_; }

    /**
     * out = A * B. Requires cols == b.rows. Register-blocked (2 output
     * rows x 4 reduction steps) with contiguous j-inner loops that
     * compile to FMA vector code; tuned for this codebase's small,
     * skinny operands. @p out must not alias A or B.
     */
    void matmul(const Matrix &b, Matrix &out) const;

    /**
     * out += A * B: same kernel as matmul() but accumulating into the
     * caller-initialized @p out (already sized rows x b.cols). Lets the
     * dense-layer forward seed the output with the broadcast bias and
     * skip both the zero fill and a separate bias sweep.
     */
    void matmulAdd(const Matrix &b, Matrix &out) const;

    /**
     * out = A * B^T. Requires cols == b.cols. General NT product whose
     * inner loop runs over the shared contiguous dimension with a bank
     * of independent accumulators so it vectorizes without -ffast-math.
     * (The batched dense forward uses matmulAdd() against a cached
     * W^T instead — the dot-product shape cannot fill vector lanes on
     * this codebase's tiny fan-ins — but this kernel is the right one
     * when both operands are row-major views of the same long axis.)
     */
    void matmulTransposed(const Matrix &b, Matrix &out) const;

    /**
     * out += scale * A^T * B. Requires rows == b.rows and
     * out.rows == cols, out.cols == b.cols. This is the batched weight-
     * gradient kernel: delta^T (out x batch) times inputs (batch x in)
     * accumulated into gradW. Each output element sums the batch rows
     * in 4-row groups ((a0b0 + a1b1) + (a2b2 + a3b3)) in ascending
     * order, then the leftover rows one at a time (outputs at most 8
     * wide instead sum every row into a zero-seeded accumulator that
     * is added last). @p out must not alias A or B.
     */
    void transposedMatmulAdd(const Matrix &b, Matrix &out,
                             float scale) const;

    /**
     * Single-row accumulate: out[0..cols) += x[0..rows) * A, where A
     * is this matrix (reduction over rows), each output element
     * summed in plain ascending-k order — bit-identical per element
     * to matvec() on A^T, but vectorized across the independent
     * outputs. This is the request path's inference matvec
     * (DenseLayer::inferRow / forward(Vector)) against the cached
     * W^T; the golden RL trajectories are pinned to this per-sample
     * summation order, which is why it deliberately does NOT share
     * the k-grouped order of the batched matmulAdd() kernels.
     */
    void mulAddRow(const float *x, float *out) const;

    /** y = A * x. Requires x.size() == cols. */
    void matvec(const Vector &x, Vector &y) const;

    /** y = A^T * x. Requires x.size() == rows. */
    void matvecTransposed(const Vector &x, Vector &y) const;

    /** A += scale * outer(u, v), with u.size()==rows, v.size()==cols. */
    void addOuter(const Vector &u, const Vector &v, float scale);

    /** A += scale * B (element-wise). */
    void addScaled(const Matrix &b, float scale);

    /** Frobenius norm. */
    float norm() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/** y += scale * x (element-wise). */
void axpy(const Vector &x, Vector &y, float scale);

/** Dot product. */
float dot(const Vector &a, const Vector &b);

/** L2 norm. */
float norm(const Vector &v);

} // namespace sibyl::ml
