#include "ml/matrix.hh"

#include "ml/kernel_dispatch.hh"

#include <algorithm>
#include <cassert>

namespace sibyl::ml
{

namespace
{

/**
 * matmulAdd micro-kernel for very narrow outputs (N <= 4, e.g. the
 * 2-action DQN head): the wide-kernel's j-sweeps degenerate to 1-2
 * scalars and pure loop overhead, so instead keep the N output values
 * of each row in register accumulators and stream the reduction
 * dimension contiguously — N independent FMA chains per row.
 */
template <std::size_t N>
inline void
matmulAddNarrow(const float *__restrict adata, const float *__restrict bdata,
                float *__restrict cdata, std::size_t m, std::size_t k)
{
    for (std::size_t i = 0; i < m; i++) {
        const float *arow = adata + i * k;
        float acc[N];
        for (std::size_t j = 0; j < N; j++)
            acc[j] = cdata[i * N + j];
        for (std::size_t kk = 0; kk < k; kk++) {
            const float av = arow[kk];
            const float *brow = bdata + kk * N;
            for (std::size_t j = 0; j < N; j++)
                acc[j] += av * brow[j];
        }
        for (std::size_t j = 0; j < N; j++)
            cdata[i * N + j] = acc[j];
    }
}

/**
 * One output row of the wide matmulAdd kernel: crow[j] += sum_k
 * arow[k] * B(k, j), with the reduction grouped exactly like the
 * blocked kernel below groups it (8-step partial sums, then the
 * 4-step parenthesization, then the 2-3/1 leftovers). Used for the
 * blocked kernel's odd tail row, so *every* row of a batched product
 * carries the same accumulation order bit for bit — which is what
 * makes batched rows independent of batch composition (the property
 * the agents' Bellman-target caches rely on). Historically the tail
 * row summed in plain sequential order, making the last row of an
 * odd batch the one row with a different summation.
 */
SIBYL_KERNEL_CLONES
void
matmulAddRowWide(const float *__restrict arow, const float *__restrict bdata,
                 float *__restrict crow, std::size_t kTot, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 8 <= kTot; k += 8) {
        const float *bk = bdata + k * n;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++) {
            float s0 = 0.0f;
            for (std::size_t u = 0; u < 8; u++)
                s0 += arow[k + u] * bk[u * n + j];
            crow[j] += s0;
        }
    }
    for (; k + 4 <= kTot; k += 4) {
        const float p0 = arow[k], p1 = arow[k + 1];
        const float p2 = arow[k + 2], p3 = arow[k + 3];
        const float *b0 = bdata + k * n;
        const float *b1 = b0 + n;
        const float *b2 = b1 + n;
        const float *b3 = b2 + n;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++)
            crow[j] += (p0 * b0[j] + p1 * b1[j]) + (p2 * b2[j] + p3 * b3[j]);
    }
    if (k + 2 <= kTot) {
        const float p0 = arow[k], p1 = arow[k + 1];
        const bool three = k + 3 <= kTot;
        const float p2 = three ? arow[k + 2] : 0.0f;
        const float *b0 = bdata + k * n;
        const float *b1 = b0 + n;
        const float *b2 = three ? b1 + n : b1;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++)
            crow[j] += (p0 * b0[j] + p1 * b1[j]) + p2 * b2[j];
    } else if (k < kTot) {
        const float p = arow[k];
        const float *brow = bdata + k * n;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++)
            crow[j] += p * brow[j];
    }
}

// Direct wrappers for the narrow template. Deliberately NOT
// ISA-cloned: the j-dimension is 1-4 scalars, too narrow for wider
// vectors to help, and the AVX2 clone measured *slower* (GCC tries
// to vectorize the streamed reduction with gathers).
void
matmulAddNarrow1(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k)
{
    matmulAddNarrow<1>(a, b, c, m, k);
}
void
matmulAddNarrow2(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k)
{
    matmulAddNarrow<2>(a, b, c, m, k);
}
void
matmulAddNarrow3(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k)
{
    matmulAddNarrow<3>(a, b, c, m, k);
}
void
matmulAddNarrow4(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k)
{
    matmulAddNarrow<4>(a, b, c, m, k);
}

/**
 * Sequential-order row kernel: out[j] += sum_k x[k] * B(k, j), with
 * each output element accumulated in plain ascending-k order — the
 * exact per-element order of Matrix::matvec() against B^T. SIMD runs
 * ACROSS the independent output elements (j), never across k, so
 * vector width cannot change a bit. This is the decision-path matvec:
 * bit-compatible with the historical per-sample forward that the
 * golden RL trajectories are pinned to, but j-vectorized instead of
 * dot-product-serial.
 */
SIBYL_KERNEL_CLONES
void
seqMulAddRow(const float *__restrict x, const float *__restrict bdata,
             float *__restrict out, std::size_t kTot, std::size_t n)
{
    for (std::size_t k = 0; k < kTot; k++) {
        const float xv = x[k];
        const float *brow = bdata + k * n;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++)
            out[j] += xv * brow[j];
    }
}

/** Blocked wide-kernel body of matmulAdd() (see member for the
 *  blocking rationale). Free function so it can be ISA-cloned. */
SIBYL_KERNEL_CLONES
void
matmulAddWide(const float *__restrict adata, const float *__restrict bdata,
              float *__restrict cdata, std::size_t rows, std::size_t kTot,
              std::size_t n)
{
    std::size_t i = 0;
    // 4-row block: one B-stream feeds four output rows, halving the
    // B-side load traffic of the 2-row block below. Each row keeps
    // its own accumulators and the identical k-grouping, so blocking
    // width is invisible in the results (rows are independent).
    for (; i + 4 <= rows; i += 4) {
        const float *a0r = adata + i * kTot;
        const float *a1r = a0r + kTot;
        const float *a2r = a1r + kTot;
        const float *a3r = a2r + kTot;
        float *c0 = cdata + i * n;
        float *c1 = c0 + n;
        float *c2 = c1 + n;
        float *c3 = c2 + n;
        std::size_t k = 0;
        for (; k + 8 <= kTot; k += 8) {
            const float *bk = bdata + k * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
                for (std::size_t u = 0; u < 8; u++) {
                    const float bv = bk[u * n + j];
                    s0 += a0r[k + u] * bv;
                    s1 += a1r[k + u] * bv;
                    s2 += a2r[k + u] * bv;
                    s3 += a3r[k + u] * bv;
                }
                c0[j] += s0;
                c1[j] += s1;
                c2[j] += s2;
                c3[j] += s3;
            }
        }
        for (; k + 4 <= kTot; k += 4) {
            const float *b0 = bdata + k * n;
            const float *b1 = b0 + n;
            const float *b2 = b1 + n;
            const float *b3 = b2 + n;
            const float p0 = a0r[k], p1 = a0r[k + 1];
            const float p2 = a0r[k + 2], p3 = a0r[k + 3];
            const float q0 = a1r[k], q1 = a1r[k + 1];
            const float q2 = a1r[k + 2], q3 = a1r[k + 3];
            const float r0 = a2r[k], r1 = a2r[k + 1];
            const float r2 = a2r[k + 2], r3 = a2r[k + 3];
            const float t0 = a3r[k], t1 = a3r[k + 1];
            const float t2 = a3r[k + 2], t3 = a3r[k + 3];
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += (p0 * b0[j] + p1 * b1[j]) +
                         (p2 * b2[j] + p3 * b3[j]);
                c1[j] += (q0 * b0[j] + q1 * b1[j]) +
                         (q2 * b2[j] + q3 * b3[j]);
                c2[j] += (r0 * b0[j] + r1 * b1[j]) +
                         (r2 * b2[j] + r3 * b3[j]);
                c3[j] += (t0 * b0[j] + t1 * b1[j]) +
                         (t2 * b2[j] + t3 * b3[j]);
            }
        }
        if (k + 2 <= kTot) {
            const bool three = k + 3 <= kTot;
            const float *b0 = bdata + k * n;
            const float *b1 = b0 + n;
            const float *b2 = three ? b1 + n : b1;
            const float p0 = a0r[k], p1 = a0r[k + 1];
            const float q0 = a1r[k], q1 = a1r[k + 1];
            const float r0 = a2r[k], r1 = a2r[k + 1];
            const float t0 = a3r[k], t1 = a3r[k + 1];
            const float p2 = three ? a0r[k + 2] : 0.0f;
            const float q2 = three ? a1r[k + 2] : 0.0f;
            const float r2 = three ? a2r[k + 2] : 0.0f;
            const float t2 = three ? a3r[k + 2] : 0.0f;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += (p0 * b0[j] + p1 * b1[j]) + p2 * b2[j];
                c1[j] += (q0 * b0[j] + q1 * b1[j]) + q2 * b2[j];
                c2[j] += (r0 * b0[j] + r1 * b1[j]) + r2 * b2[j];
                c3[j] += (t0 * b0[j] + t1 * b1[j]) + t2 * b2[j];
            }
        } else if (k < kTot) {
            const float p = a0r[k], q = a1r[k];
            const float r = a2r[k], t = a3r[k];
            const float *brow = bdata + k * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += p * brow[j];
                c1[j] += q * brow[j];
                c2[j] += r * brow[j];
                c3[j] += t * brow[j];
            }
        }
    }
    for (; i + 2 <= rows; i += 2) {
        const float *a0r = adata + i * kTot;
        const float *a1r = a0r + kTot;
        float *c0 = cdata + i * n;
        float *c1 = c0 + n;
        std::size_t k = 0;
        for (; k + 8 <= kTot; k += 8) {
            const float *bk = bdata + k * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                float s0 = 0.0f, s1 = 0.0f;
                for (std::size_t u = 0; u < 8; u++) {
                    s0 += a0r[k + u] * bk[u * n + j];
                    s1 += a1r[k + u] * bk[u * n + j];
                }
                c0[j] += s0;
                c1[j] += s1;
            }
        }
        for (; k + 4 <= kTot; k += 4) {
            const float p0 = a0r[k], p1 = a0r[k + 1];
            const float p2 = a0r[k + 2], p3 = a0r[k + 3];
            const float q0 = a1r[k], q1 = a1r[k + 1];
            const float q2 = a1r[k + 2], q3 = a1r[k + 3];
            const float *b0 = bdata + k * n;
            const float *b1 = b0 + n;
            const float *b2 = b1 + n;
            const float *b3 = b2 + n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += (p0 * b0[j] + p1 * b1[j]) +
                         (p2 * b2[j] + p3 * b3[j]);
                c1[j] += (q0 * b0[j] + q1 * b1[j]) +
                         (q2 * b2[j] + q3 * b3[j]);
            }
        }
        if (k + 2 <= kTot) {
            // Merge the 2-3 leftover reduction steps into one sweep.
            const float p0 = a0r[k], p1 = a0r[k + 1];
            const float q0 = a1r[k], q1 = a1r[k + 1];
            const bool three = k + 3 <= kTot;
            const float p2 = three ? a0r[k + 2] : 0.0f;
            const float q2 = three ? a1r[k + 2] : 0.0f;
            const float *b0 = bdata + k * n;
            const float *b1 = b0 + n;
            const float *b2 = three ? b1 + n : b1;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += (p0 * b0[j] + p1 * b1[j]) + p2 * b2[j];
                c1[j] += (q0 * b0[j] + q1 * b1[j]) + q2 * b2[j];
            }
            k = kTot;
        } else if (k < kTot) {
            const float p = a0r[k], q = a1r[k];
            const float *brow = bdata + k * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += p * brow[j];
                c1[j] += q * brow[j];
            }
        }
    }
    // Odd tail row: the shared row kernel, so its accumulation
    // grouping matches the paired rows above (previously this tail
    // used a plain sequential-k sweep, making the last row of an odd
    // batch the one row with a different summation order).
    if (i < rows)
        matmulAddRowWide(adata + i * kTot, bdata, cdata + i * n, kTot, n);
}

} // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

void
Matrix::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

void
Matrix::matmul(const Matrix &b, Matrix &out) const
{
    out.resize(rows_, b.cols_);
    out.fill(0.0f);
    matmulAdd(b, out);
}

void
Matrix::matmulAdd(const Matrix &b, Matrix &out) const
{
    assert(cols_ == b.rows_);
    assert(out.rows_ == rows_ && out.cols_ == b.cols_);
    assert(&out != this && &out != &b);
    const std::size_t n = b.cols_;
    switch (n) {
      case 1:
        matmulAddNarrow1(data_.data(), b.data_.data(), out.data_.data(),
                         rows_, cols_);
        return;
      case 2:
        matmulAddNarrow2(data_.data(), b.data_.data(), out.data_.data(),
                         rows_, cols_);
        return;
      case 3:
        matmulAddNarrow3(data_.data(), b.data_.data(), out.data_.data(),
                         rows_, cols_);
        return;
      case 4:
        matmulAddNarrow4(data_.data(), b.data_.data(), out.data_.data(),
                         rows_, cols_);
        return;
      default:
        break;
    }
    // Register-blocked micro-kernel tuned for this codebase's small
    // operands (fan-in 6..128, fan-out 2..102): 2 output rows x 4
    // reduction steps per j-sweep, so each contiguous j-inner loop
    // entry retires 8 FMA streams. Flat __restrict base pointers plus
    // ivdep drop the runtime alias versioning GCC would otherwise
    // re-check on every j-loop entry — that versioning, not the math,
    // dominated the original one-row-at-a-time kernel.
    matmulAddWide(data_.data(), b.data_.data(), out.data_.data(), rows_,
                  cols_, n);
}

void
Matrix::mulAddRow(const float *x, float *out) const
{
    seqMulAddRow(x, data_.data(), out, rows_, cols_);
}

void
Matrix::matmulTransposed(const Matrix &b, Matrix &out) const
{
    assert(cols_ == b.cols_);
    assert(&out != this && &out != &b);
    out.resize(rows_, b.rows_);
    const std::size_t k = cols_;
    // Each output element is a dot product over the shared contiguous
    // dimension. A bank of independent accumulators maps onto vector
    // lanes without needing relaxed float semantics.
    constexpr std::size_t kLanes = 8;
    for (std::size_t i = 0; i < rows_; i++) {
        const float *arow = row(i);
        float *crow = out.row(i);
        for (std::size_t j = 0; j < b.rows_; j++) {
            const float *brow = b.row(j);
            float acc[kLanes] = {};
            std::size_t kk = 0;
            for (; kk + kLanes <= k; kk += kLanes)
                for (std::size_t u = 0; u < kLanes; u++)
                    acc[u] += arow[kk + u] * brow[kk + u];
            float tail = 0.0f;
            for (; kk < k; kk++)
                tail += arow[kk] * brow[kk];
            crow[j] = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                      ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail;
        }
    }
}

namespace
{

/**
 * Wide body of transposedMatmulAdd(): out[c, j] += sum_r a[r, c] *
 * b[r, j] with the batch dimension r outermost, so delta rows and
 * input rows stream contiguously and each output row is revisited
 * once per 4-row group. Every out[c, j] still receives the same adds
 * in the same order — 4-row groups ((a0b0 + a1b1) + (a2b2 + a3b3))
 * in ascending r, then single tail rows — so moving r outside c
 * changes no result bit. @p N > 0 fixes the width at compile time
 * (the j-sweep then unrolls fully with no loop epilogue); N == 0
 * reads it from @p nRun.
 */
template <std::size_t N>
[[gnu::always_inline]] inline void
transposedMatmulAddRows(const float *__restrict adata,
                        const float *__restrict bdata,
                        float *__restrict odata, std::size_t m,
                        std::size_t cols, std::size_t nRun, float scale)
{
    const std::size_t n = N ? N : nRun;
    std::size_t r = 0;
    for (; r + 4 <= m; r += 4) {
        const float *ar0 = adata + r * cols;
        const float *ar1 = ar0 + cols;
        const float *ar2 = ar1 + cols;
        const float *ar3 = ar2 + cols;
        const float *b0 = bdata + r * n;
        const float *b1 = b0 + n;
        const float *b2 = b1 + n;
        const float *b3 = b2 + n;
        for (std::size_t c = 0; c < cols; c++) {
            const float a0 = ar0[c] * scale;
            const float a1 = ar1[c] * scale;
            const float a2 = ar2[c] * scale;
            const float a3 = ar3[c] * scale;
            float *orow = odata + c * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++)
                orow[j] += (a0 * b0[j] + a1 * b1[j]) +
                           (a2 * b2[j] + a3 * b3[j]);
        }
    }
    for (; r < m; r++) {
        const float *ar = adata + r * cols;
        const float *brow = bdata + r * n;
        for (std::size_t c = 0; c < cols; c++) {
            const float av = ar[c] * scale;
            float *orow = odata + c * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++)
                orow[j] += av * brow[j];
        }
    }
}

/** Body of transposedMatmulAdd() (see member doc); ISA-cloned free
 *  function like the forward kernels. */
SIBYL_KERNEL_CLONES
void
transposedMatmulAddImpl(const float *__restrict adata,
                        const float *__restrict bdata,
                        float *__restrict odata, std::size_t m,
                        std::size_t cols, std::size_t n, float scale)
{
    if (n <= 8) {
        // Narrow inputs (e.g. the 6-feature state layer): hold the
        // output row in register accumulators and stream the batch
        // dimension instead of issuing per-r-group j-sweeps of under
        // one vector each.
        for (std::size_t c = 0; c < cols; c++) {
            float *orow = odata + c * n;
            float acc[8] = {};
            for (std::size_t r = 0; r < m; r++) {
                const float av = adata[r * cols + c] * scale;
                const float *brow = bdata + r * n;
                for (std::size_t j = 0; j < n; j++)
                    acc[j] += av * brow[j];
            }
            for (std::size_t j = 0; j < n; j++)
                orow[j] += acc[j];
        }
        return;
    }
    // Compile-time widths for the default 6-20-30-102 net's hidden
    // fan-ins, which the sibyl_single benchmark trains (128x102x30 on
    // a scratch probe: 70 us column-wise, 64 us row-outer with a
    // runtime width, 28 us with a compile-time one). Other widths take
    // the runtime-width sweep.
    switch (n) {
      case 20:
        transposedMatmulAddRows<20>(adata, bdata, odata, m, cols, n, scale);
        return;
      case 30:
        transposedMatmulAddRows<30>(adata, bdata, odata, m, cols, n, scale);
        return;
      default:
        transposedMatmulAddRows<0>(adata, bdata, odata, m, cols, n, scale);
        return;
    }
}

} // namespace

void
Matrix::transposedMatmulAdd(const Matrix &b, Matrix &out, float scale) const
{
    assert(rows_ == b.rows_);
    assert(out.rows_ == cols_ && out.cols_ == b.cols_);
    assert(&out != this && &out != &b);
    transposedMatmulAddImpl(data_.data(), b.data_.data(), out.data_.data(),
                            rows_, cols_, b.cols_, scale);
}

void
Matrix::matvec(const Vector &x, Vector &y) const
{
    assert(x.size() == cols_);
    y.assign(rows_, 0.0f);
    const float *row = data_.data();
    for (std::size_t r = 0; r < rows_; r++, row += cols_) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < cols_; c++)
            acc += row[c] * x[c];
        y[r] = acc;
    }
}

void
Matrix::matvecTransposed(const Vector &x, Vector &y) const
{
    assert(x.size() == rows_);
    y.assign(cols_, 0.0f);
    const float *row = data_.data();
    for (std::size_t r = 0; r < rows_; r++, row += cols_) {
        float xv = x[r];
        if (xv == 0.0f)
            continue;
        for (std::size_t c = 0; c < cols_; c++)
            y[c] += row[c] * xv;
    }
}

void
Matrix::addOuter(const Vector &u, const Vector &v, float scale)
{
    assert(u.size() == rows_ && v.size() == cols_);
    float *row = data_.data();
    for (std::size_t r = 0; r < rows_; r++, row += cols_) {
        float uv = u[r] * scale;
        if (uv == 0.0f)
            continue;
        for (std::size_t c = 0; c < cols_; c++)
            row[c] += uv * v[c];
    }
}

void
Matrix::addScaled(const Matrix &b, float scale)
{
    assert(rows_ == b.rows_ && cols_ == b.cols_);
    for (std::size_t i = 0; i < data_.size(); i++)
        data_[i] += scale * b.data_[i];
}

void
axpy(const Vector &x, Vector &y, float scale)
{
    assert(x.size() == y.size());
    for (std::size_t i = 0; i < x.size(); i++)
        y[i] += scale * x[i];
}

float
dot(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    float acc = 0.0f;
    for (std::size_t i = 0; i < a.size(); i++)
        acc += a[i] * b[i];
    return acc;
}

} // namespace sibyl::ml
