#pragma once

#include <optional>

#include "linalg/matrix.h"

namespace cmmfo::linalg {

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix,
/// with the solves and determinants Gaussian-process inference needs.
///
/// GP Gram matrices are PSD in exact arithmetic but frequently indefinite in
/// floating point when points nearly coincide; `factorizeWithJitter` retries
/// with exponentially growing diagonal jitter, which is the standard remedy.
class Cholesky {
 public:
  /// Empty (0 x 0) factor, to be filled by refactorize().
  Cholesky() = default;

  /// Factorize; returns std::nullopt if A is not numerically PD.
  static std::optional<Cholesky> factorize(const Matrix& a);

  /// Factorize A + jitter*I, growing jitter by 10x up to maxTries.
  /// Returns nullopt only if even the largest jitter fails.
  static std::optional<Cholesky> factorizeWithJitter(
      const Matrix& a, double initial_jitter = 1e-10, int max_tries = 10);
  /// factorizeWithJitter into this object's own storage, reused when the
  /// dimension is unchanged: the same operations and jitter ladder, so the
  /// factor is bit-identical, without a factor allocation per call (the
  /// MLE objective refactorizes on every evaluation). On false the factor
  /// holds no valid decomposition.
  bool refactorize(const Matrix& a, double initial_jitter = 1e-10,
                   int max_tries = 10);

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;
  /// Multi-RHS solve A X = B: both substitutions sweep all columns per
  /// factor row, so L is streamed once instead of once per column. Each
  /// column's operation sequence is identical to solve(b.col(c)), making the
  /// result bit-for-bit equal to the per-vector path.
  Matrix solve(const Matrix& b) const;
  /// Solve L y = b (forward substitution).
  std::vector<double> solveLower(const std::vector<double>& b) const;
  /// Multi-RHS forward substitution L Y = B (bit-equal per column).
  Matrix solveLower(const Matrix& b) const;

  /// Rank-append update: grow the factor of A to the factor of
  ///   [A  c; c^T  d]
  /// in O(n^2) — exactly the operations a fresh factorization would spend on
  /// its last row, so the grown factor is bit-identical to refactorizing the
  /// bordered matrix (when A factorized without jitter). The new row is
  /// swept straight into the factor's storage, which grows geometrically,
  /// so only a growth step copies existing rows. Returns false (and leaves
  /// the factor untouched) if the Schur complement d - l^T l is not
  /// numerically positive; callers should fall back to a dense refactorize.
  /// Refuses jittered factors: the implied bordered matrix would mix
  /// jittered and unjittered diagonals.
  bool appendRow(const std::vector<double>& cross, double diag);
  /// Shrink the factor to its leading n x n block — the exact factor of the
  /// leading principal submatrix, so append/truncate pairs round-trip
  /// bit-identically (Kriging-believer speculation rollback). O(1): the
  /// storage is kept for the next append.
  void truncateTo(std::size_t n);

  /// log det(A) = 2 * sum_i log L_ii.
  double logDet() const;
  /// Explicit inverse of A (use sparingly; needed for MLE gradient traces).
  Matrix inverse() const;
  /// inverse() written into `out`, reusing its storage when it is already
  /// dim() x dim(); bit-identical to inverse() and to solve(I). Needs a
  /// successfully factorized (finite, positive-diagonal) factor.
  void inverseInto(Matrix& out) const;
  /// The lower-triangular factor as an n x n matrix (a copy; zero above the
  /// diagonal).
  Matrix lower() const;
  /// Row i of the factor: its first i + 1 entries are L(i, 0..i).
  const double* rowPtr(std::size_t i) const {
    return buf_.data() + rowOffset(i);
  }
  /// Cheap 2-norm condition estimate of A from the factor diagonal:
  /// (max_i L_ii / min_i L_ii)^2. A lower bound on cond_2(A), accurate
  /// enough to flag ill-conditioned Gram matrices in diagnostics.
  double conditionEstimate() const;
  /// Jitter that was actually added to the diagonal (0 if none).
  double jitterUsed() const { return jitter_; }

  std::size_t dim() const { return n_; }

 private:
  /// Factor A + jitter*I into buf_ as a row-major n x n matrix, zero above
  /// the diagonal (the storage is reallocated only when it is too small).
  bool factorInto(const Matrix& a, double jitter);
  /// Multi-RHS solve X <- A^{-1} X in place (the body of solve(Matrix)).
  void solveInPlace(Matrix& x) const;
  /// Where row i starts in buf_. Rows below stride_ sit in the square block
  /// a dense factorization wrote (row stride stride_); rank-appended rows
  /// past it follow packed, row i holding its i + 1 entries.
  std::size_t rowOffset(std::size_t i) const {
    return i < stride_ ? i * stride_
                       : stride_ * stride_ +
                             (i * (i + 1) - stride_ * (stride_ + 1)) / 2;
  }
  std::vector<double> buf_;
  std::size_t n_ = 0;       ///< dim(): rows of the factor in use
  std::size_t stride_ = 0;  ///< dimension of the last dense factorization
  double jitter_ = 0.0;
  std::vector<double> acc_;  ///< factorInto's accumulators, kept (n >= 16)
};

/// Sample z ~ N(mu, A) into `out` (storage reused) given the Cholesky
/// factor of A and iid standard normals `std_normals` (length = dim).
void mvnSample(const std::vector<double>& mu, const Cholesky& chol,
               const std::vector<double>& std_normals,
               std::vector<double>& out);

}  // namespace cmmfo::linalg
