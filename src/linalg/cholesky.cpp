#include "linalg/cholesky.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

namespace cmmfo::linalg {

std::optional<Cholesky> Cholesky::factorize(const Matrix& a) {
  Cholesky c;
  if (!c.factorInto(a, 0.0)) return std::nullopt;
  return c;
}

std::optional<Cholesky> Cholesky::factorizeWithJitter(const Matrix& a,
                                                      double initial_jitter,
                                                      int max_tries) {
  Cholesky c;
  if (!c.refactorize(a, initial_jitter, max_tries)) return std::nullopt;
  return c;
}

bool Cholesky::refactorize(const Matrix& a, double initial_jitter,
                           int max_tries) {
  if (factorInto(a, 0.0)) return true;
  // Scale jitter to the matrix magnitude so that it is meaningful for both
  // unit-variance Gram matrices and raw-unit covariances. Adding the jitter
  // to a(j, j) inside the factorization is the same sum a jittered copy of
  // A would hold, so no copy is made.
  double scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    scale = std::max(scale, std::fabs(a(i, i)));
  if (scale == 0.0) scale = 1.0;
  double jitter = initial_jitter * scale;
  for (int t = 0; t < max_tries; ++t, jitter *= 10.0)
    if (factorInto(a, jitter)) return true;
  return false;
}

std::vector<double> Cholesky::solveLower(const std::vector<double>& b) const {
  const std::size_t n = dim();
  assert(b.size() == n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* li = rowPtr(i);
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  return y;
}

std::vector<double> Cholesky::solve(const std::vector<double>& b) const {
  // One allocation for the result; both substitutions run in place on it.
  // Each element accumulates through a scalar: rows low to high for L, then
  // rows high to low with k ascending for L^T.
  const std::size_t n = dim();
  assert(b.size() == n);
  std::vector<double> x = b;
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    const double* li = rowPtr(i);
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * x[k];
    x[i] = s / li[i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= rowPtr(k)[ii] * x[k];
    x[ii] = s / rowPtr(ii)[ii];
  }
  return x;
}

namespace {
/// Column tile of the multi-RHS substitutions: bounds the active slice of
/// the RHS block to ~n * kSolveTile * 8 bytes so it stays cache-resident
/// while L streams through once per tile. Without it a wide block (e.g. a
/// 1024-candidate sweep) is re-streamed from memory on every factor row and
/// the solve goes memory-bound. Tiling only partitions the independent
/// columns — each column's operation sequence is untouched.
constexpr std::size_t kSolveTile = 64;

#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
// Runtime-dispatched wide clones of the tile kernels: 4/8-wide mul+sub over
// the columns. With contraction off (the build pins -ffp-contract=off for
// this file — AVX-512F carries its own FMA forms) multiply and subtract
// stay separately rounded exactly like the baseline ISA, so the wide clones
// are bit-identical to the default one. ThreadSanitizer builds take the
// default only: the clones' IFUNC resolvers run before the TSan runtime is
// initialized and crash a TSan executable before main.
#define CMMFO_SOLVE_TILE_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CMMFO_SOLVE_TILE_CLONES
#endif

/// Forward substitution L x = b over a compact n x kSolveTile tile buffer
/// (row stride kSolveTile, first tw columns active), in place. The caller
/// copies the tile out of the wide RHS block first: the compact layout
/// turns every x[k] slice load into a short fixed-stride sequential run
/// instead of a gather across multi-KB-strided rows. Rows accumulate in
/// local buffers: without them the compiler must spill the running row to
/// memory on every k step, putting a store-to-load round-trip on the
/// critical path. Four output rows advance together so each loaded x[k]
/// slice feeds four rows' updates. Per column every row still subtracts
/// its k terms in ascending order against finalized earlier rows — the
/// blocking reorders row interleaving only, never a column's operation
/// sequence, so results stay bit-identical to the per-vector solveLower.
CMMFO_SOLVE_TILE_CLONES
void forwardSubTile(const Cholesky& l, double* xb, std::size_t tw) {
  const std::size_t n = l.dim();
  double a0[kSolveTile], a1[kSolveTile], a2[kSolveTile], a3[kSolveTile];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double* x0 = xb + i * kSolveTile;
    double* x1 = x0 + kSolveTile;
    double* x2 = x1 + kSolveTile;
    double* x3 = x2 + kSolveTile;
    for (std::size_t c = 0; c < tw; ++c) {
      a0[c] = x0[c];
      a1[c] = x1[c];
      a2[c] = x2[c];
      a3[c] = x3[c];
    }
    const double* l0 = l.rowPtr(i);
    const double* l1 = l.rowPtr(i + 1);
    const double* l2 = l.rowPtr(i + 2);
    const double* l3 = l.rowPtr(i + 3);
    for (std::size_t k = 0; k < i; ++k) {
      const double* xk = xb + k * kSolveTile;
      const double m0 = l0[k], m1 = l1[k], m2 = l2[k], m3 = l3[k];
      for (std::size_t c = 0; c < tw; ++c) {
        const double v = xk[c];
        a0[c] -= m0 * v;
        a1[c] -= m1 * v;
        a2[c] -= m2 * v;
        a3[c] -= m3 * v;
      }
    }
    // Triangular corner: finalize the rows in order; each later row's
    // remaining k terms (still ascending) use the freshly finalized rows.
    const double d0 = l0[i];
    for (std::size_t c = 0; c < tw; ++c) x0[c] = a0[c] / d0;
    const double e1 = l1[i], d1 = l1[i + 1];
    for (std::size_t c = 0; c < tw; ++c) {
      a1[c] -= e1 * x0[c];
      x1[c] = a1[c] / d1;
    }
    const double e2 = l2[i], f2 = l2[i + 1], d2 = l2[i + 2];
    for (std::size_t c = 0; c < tw; ++c) {
      a2[c] -= e2 * x0[c];
      a2[c] -= f2 * x1[c];
      x2[c] = a2[c] / d2;
    }
    const double e3 = l3[i], f3 = l3[i + 1], g3 = l3[i + 2], d3 = l3[i + 3];
    for (std::size_t c = 0; c < tw; ++c) {
      a3[c] -= e3 * x0[c];
      a3[c] -= f3 * x1[c];
      a3[c] -= g3 * x2[c];
      x3[c] = a3[c] / d3;
    }
  }
  for (; i < n; ++i) {
    double* xi = xb + i * kSolveTile;
    for (std::size_t c = 0; c < tw; ++c) a0[c] = xi[c];
    const double* li = l.rowPtr(i);
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      const double* xk = xb + k * kSolveTile;
      for (std::size_t c = 0; c < tw; ++c) a0[c] -= lik * xk[c];
    }
    const double lii = li[i];
    for (std::size_t c = 0; c < tw; ++c) xi[c] = a0[c] / lii;
  }
}

/// Backward substitution L^T x = y over the compact tile buffer, in place
/// (rows high to low, k ascending per row, matching the backward half of the
/// per-vector solve(); row blocking would put each row's corner terms after
/// its tail terms, changing the per-column order, so this one stays
/// unblocked).
CMMFO_SOLVE_TILE_CLONES
void backwardSubTile(const Cholesky& l, double* xb, std::size_t tw) {
  const std::size_t n = l.dim();
  double acc[kSolveTile];
  for (std::size_t ii = n; ii-- > 0;) {
    double* xi = xb + ii * kSolveTile;
    for (std::size_t c = 0; c < tw; ++c) acc[c] = xi[c];
    for (std::size_t k = ii + 1; k < n; ++k) {
      const double lki = l.rowPtr(k)[ii];
      const double* xk = xb + k * kSolveTile;
      for (std::size_t c = 0; c < tw; ++c) acc[c] -= lki * xk[c];
    }
    const double lii = l.rowPtr(ii)[ii];
    for (std::size_t c = 0; c < tw; ++c) xi[c] = acc[c] / lii;
  }
}

/// Copy columns [c0, c0 + tw) of src into the compact tile buffer (and back
/// out with unpackTile). Pure data movement — no arithmetic, so packing
/// cannot perturb a single bit of the solve.
void packTile(const Matrix& src, std::size_t c0, std::size_t tw, double* xb) {
  for (std::size_t i = 0; i < src.rows(); ++i) {
    const double* s = src.rowPtr(i) + c0;
    double* d = xb + i * kSolveTile;
    for (std::size_t c = 0; c < tw; ++c) d[c] = s[c];
  }
}

void unpackTile(const double* xb, std::size_t c0, std::size_t tw,
                Matrix& dst) {
  for (std::size_t i = 0; i < dst.rows(); ++i) {
    const double* s = xb + i * kSolveTile;
    double* d = dst.rowPtr(i) + c0;
    for (std::size_t c = 0; c < tw; ++c) d[c] = s[c];
  }
}

/// Register block of the factor and inverse kernels: 16 lanes, held as four
/// 4-wide vectors (GCC vector extensions, so the lanes stay lanes: the
/// compiler may not re-associate them, and every lane is a separately
/// rounded multiply then subtract, with contraction off). They advance per
/// loaded factor entry, so 16 latency-bound dependent chains overlap.
constexpr std::size_t kChunk = 16;
typedef double V4 __attribute__((vector_size(32)));

/// Sixteen accumulators acc[0..16) as four vectors (no V4 crosses a call:
/// everything here inlines into the cloned kernels).
struct Chunk {
  V4 a0, a1, a2, a3;
  explicit Chunk(const double* p) {
    std::memcpy(&a0, p, sizeof a0);
    std::memcpy(&a1, p + 4, sizeof a1);
    std::memcpy(&a2, p + 8, sizeof a2);
    std::memcpy(&a3, p + 12, sizeof a3);
  }
  /// acc[c] -= m * x[c], lane by lane.
  void subScaled(double m, const double* x) {
    V4 x0, x1, x2, x3;
    std::memcpy(&x0, x, sizeof x0);
    std::memcpy(&x1, x + 4, sizeof x1);
    std::memcpy(&x2, x + 8, sizeof x2);
    std::memcpy(&x3, x + 12, sizeof x3);
    const V4 mv = {m, m, m, m};
    a0 -= mv * x0;
    a1 -= mv * x1;
    a2 -= mv * x2;
    a3 -= mv * x3;
  }
  void store(double* p) const {
    std::memcpy(p, &a0, sizeof a0);
    std::memcpy(p + 4, &a1, sizeof a1);
    std::memcpy(p + 8, &a2, sizeof a2);
    std::memcpy(p + 12, &a3, sizeof a3);
  }
  /// p[c] = acc[c] / d.
  void storeDivided(double* p, double d) const {
    const V4 dv = {d, d, d, d};
    const V4 q0 = a0 / dv, q1 = a1 / dv, q2 = a2 / dv, q3 = a3 / dv;
    std::memcpy(p, &q0, sizeof q0);
    std::memcpy(p + 4, &q1, sizeof q1);
    std::memcpy(p + 8, &q2, sizeof q2);
    std::memcpy(p + 12, &q3, sizeof q3);
  }
};

/// The factor of A + jitter I into the n x n row-major lp (left-looking by
/// columns; see Cholesky::factorInto), with s as n + kChunk accumulators.
/// A block of kChunk rows of column j runs s[c] -= l(i0 + c, k) * l(j, k)
/// for k = 0 .. j-1 ascending, reading l(i0 + c, k) from L^T, which the
/// strict upper triangle holds while the factor runs (l(k, i) = l(i, k) for
/// i > k), so each k is one contiguous run. Each lane keeps the exact
/// subtraction sequence of the scalar loop (l(i, k) * l(j, k) and
/// l(j, k) * l(i, k) are the same product); lanes past the last row read
/// the next row's entries and are discarded (n >= kChunk keeps every read
/// inside lp).
CMMFO_SOLVE_TILE_CLONES
bool factorLower(const Matrix& a, double jitter, double* lp, double* s) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    s[0] = a(j, j) + jitter;
    for (std::size_t i = j + 1; i < n; ++i) s[i - j] = a(i, j);
    const double* lj = lp + j * n;
    for (std::size_t c = 0; c < n - j; c += kChunk) {
      const double* lt = lp + j + c;
      Chunk acc(s + c);
      for (std::size_t k = 0; k < j; ++k) acc.subScaled(lj[k], lt + k * n);
      acc.store(s + c);
    }
    const double d = s[0];
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    lp[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      const double v = s[i - j] / ljj;
      lp[i * n + j] = v;
      lp[j * n + i] = v;
    }
  }
  for (std::size_t k = 0; k < n; ++k)
    std::fill(lp + k * n + k + 1, lp + (k + 1) * n, 0.0);
  return true;
}

/// factorLower's loop one entry at a time, each with its lane's operation
/// sequence (same bits), for n < kChunk, where a block would read past L.
bool factorSmall(const Matrix& a, double jitter, double* lp) {
  const std::size_t n = a.rows();
  std::fill(lp, lp + n * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = lp + j * n;
    for (std::size_t i = j; i < n; ++i) {
      double s = i == j ? a(j, j) + jitter : a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= lj[k] * lp[i * n + k];
      if (i > j) {
        lp[i * n + j] = s / lj[j];
      } else {
        if (!(s > 0.0) || !std::isfinite(s)) return false;
        lp[j * n + j] = std::sqrt(s);
      }
    }
  }
  return true;
}

/// Identity-aware inverse of the column block [c0, c0 + kChunk) of A^{-1}
/// for the n x n factor at lp (row stride s), written into x from the
/// identity (x's prior content is never read, so
/// an overlapping last block recomputes the same bits). Forward: column c
/// of L^{-1} is +0 above row c, and a term l(i, k) * (+0) is +/-0, which
/// leaves the running 1 or +0 unchanged, so rows start at c0 and terms at
/// k = c0 — every skipped operation could not change a bit (a successful
/// factor has finite L and L_ii > 0). Lanes above the diagonal run the same
/// arithmetic and stay +0. Backward: the generic sweep, k ascending from
/// ii + 1, starting from +0 in the rows above c0.
CMMFO_SOLVE_TILE_CLONES
void inverseBlock(const double* lp, std::size_t s, std::size_t n, Matrix& x,
                  std::size_t c0) {
  // kUnit + kChunk - d holds e_d (lanes 0..kChunk); kUnit + 2 kChunk zeros.
  static constexpr double kUnit[3 * kChunk] = {
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1.0};
  const double* zeros = kUnit + 2 * kChunk;
  for (std::size_t i = c0; i < n; ++i) {
    const std::size_t d = i - c0;
    const double* li = lp + i * s;
    Chunk acc(d < kChunk ? kUnit + kChunk - d : zeros);
    for (std::size_t k = c0; k < i; ++k) acc.subScaled(li[k], x.rowPtr(k) + c0);
    acc.storeDivided(x.rowPtr(i) + c0, li[i]);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double* xi = x.rowPtr(ii) + c0;
    Chunk acc(ii >= c0 ? xi : zeros);
    for (std::size_t k = ii + 1; k < n; ++k)
      acc.subScaled(lp[k * s + ii], x.rowPtr(k) + c0);
    acc.storeDivided(xi, lp[ii * s + ii]);
  }
}
}  // namespace

bool Cholesky::factorInto(const Matrix& a, double jitter) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  // An exact-size allocation when the storage is too small (a growing
  // resize could double it).
  if (buf_.capacity() < n * n) buf_ = std::vector<double>(n * n);
  buf_.resize(n * n);
  n_ = stride_ = n;
  double* lp = buf_.data();
  // Entry (i, j) keeps the scalar sequence a(i, j) [+ jitter on the
  // diagonal], minus l(i, k) * l(j, k) for k ascending, then the square root
  // or the division by l_jj; kChunk rows of a column advance together.
  if (n >= kChunk) {
    acc_.resize(n + kChunk);
    if (!factorLower(a, jitter, lp, acc_.data())) return false;
  } else if (!factorSmall(a, jitter, lp)) {
    return false;
  }
  jitter_ = jitter;
  return true;
}

Matrix Cholesky::solve(const Matrix& b) const {
  Matrix x = b;
  solveInPlace(x);
  return x;
}

void Cholesky::solveInPlace(Matrix& x) const {
  // Multi-RHS path: within a column tile, sweep every column per factor
  // row. For each column the subtraction order (k ascending / descending)
  // and the final division match solve(b.col(c)) exactly, so the result is
  // bit-identical to the per-vector loop.
  const std::size_t n = dim();
  assert(x.rows() == n);
  const std::size_t nc = x.cols();
  std::vector<double> xb(n * kSolveTile);
  for (std::size_t c0 = 0; c0 < nc; c0 += kSolveTile) {
    const std::size_t tw = std::min(kSolveTile, nc - c0);
    packTile(x, c0, tw, xb.data());
    forwardSubTile(*this, xb.data(), tw);
    backwardSubTile(*this, xb.data(), tw);
    unpackTile(xb.data(), c0, tw, x);
  }
}

Matrix Cholesky::solveLower(const Matrix& b) const {
  const std::size_t n = dim();
  assert(b.rows() == n);
  const std::size_t nc = b.cols();
  Matrix x = b;
  std::vector<double> xb(n * kSolveTile);
  for (std::size_t c0 = 0; c0 < nc; c0 += kSolveTile) {
    const std::size_t tw = std::min(kSolveTile, nc - c0);
    packTile(x, c0, tw, xb.data());
    forwardSubTile(*this, xb.data(), tw);
    unpackTile(xb.data(), c0, tw, x);
  }
  return x;
}

bool Cholesky::appendRow(const std::vector<double>& cross, double diag) {
  const std::size_t n = dim();
  assert(cross.size() == n);
  if (jitter_ != 0.0) return false;
  // Room for row n: a row below stride_ reuses the dense block's storage;
  // one past it extends the packed tail, growing the capacity by half.
  const std::size_t off = rowOffset(n);
  const std::size_t end = off + n + 1;
  if (end > buf_.size()) {
    if (end > buf_.capacity())
      buf_.reserve(std::max(end, buf_.capacity() + buf_.capacity() / 2));
    buf_.resize(end);
  }
  // New bottom row of L, computed with exactly the operations factorize()
  // would spend on the last row of the bordered matrix — one forward
  // substitution against the existing factor, then the Schur complement.
  // Rows 0..n-1 are left as they are, so a refusal leaves the factor
  // untouched.
  double* row = buf_.data() + off;
  for (std::size_t j = 0; j < n; ++j) {
    double s = cross[j];
    const double* lj = rowPtr(j);
    for (std::size_t k = 0; k < j; ++k) s -= row[k] * lj[k];
    row[j] = s / lj[j];
  }
  double d = diag;
  for (std::size_t k = 0; k < n; ++k) d -= row[k] * row[k];
  if (!(d > 0.0) || !std::isfinite(d)) return false;
  row[n] = std::sqrt(d);
  n_ = n + 1;
  return true;
}

void Cholesky::truncateTo(std::size_t n) {
  assert(n <= dim());
  n_ = n;
}

Matrix Cholesky::lower() const {
  Matrix l(n_, n_);
  for (std::size_t i = 0; i < n_; ++i)
    std::copy_n(rowPtr(i), i + 1, l.rowPtr(i));
  return l;
}

double Cholesky::logDet() const {
  double s = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) s += std::log(rowPtr(i)[i]);
  return 2.0 * s;
}

Matrix Cholesky::inverse() const {
  Matrix inv;
  inverseInto(inv);
  return inv;
}

void Cholesky::inverseInto(Matrix& out) const {
  // Bit-identical to solve(Matrix::identity(n)): each column keeps the
  // per-vector substitution sequence, minus terms that cannot change it.
  // Full kChunk-column blocks; when kChunk does not divide n the last block
  // overlaps the one before it. Below kChunk, or with rank-appended rows
  // past the dense block, the generic solve.
  const std::size_t n = dim();
  if (n < kChunk || n > stride_) {
    out.assignZero(n, n);
    for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
    solveInPlace(out);
    return;
  }
  if (out.rows() != n || out.cols() != n) out = Matrix(n, n);
  for (std::size_t c0 = 0; c0 + kChunk <= n; c0 += kChunk)
    inverseBlock(buf_.data(), stride_, n, out, c0);
  if (n % kChunk != 0) inverseBlock(buf_.data(), stride_, n, out, n - kChunk);
}

double Cholesky::conditionEstimate() const {
  const std::size_t n = dim();
  if (n == 0) return 1.0;
  double lo = rowPtr(0)[0], hi = lo;
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, rowPtr(i)[i]);
    hi = std::max(hi, rowPtr(i)[i]);
  }
  if (lo <= 0.0) return std::numeric_limits<double>::infinity();
  const double r = hi / lo;
  return r * r;
}

void mvnSample(const std::vector<double>& mu, const Cholesky& chol,
               const std::vector<double>& std_normals,
               std::vector<double>& out) {
  const std::size_t n = mu.size();
  assert(chol.dim() == n && std_normals.size() == n);
  out.assign(mu.begin(), mu.end());
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = chol.rowPtr(i);
    double acc = 0.0;
    for (std::size_t k = 0; k <= i; ++k) acc += li[k] * std_normals[k];
    out[i] += acc;
  }
}

}  // namespace cmmfo::linalg
