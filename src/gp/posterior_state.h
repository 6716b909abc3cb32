#pragma once

#include <cstdint>
#include <optional>

#include "gp/kernel.h"
#include "linalg/cholesky.h"
#include "linalg/stats.h"

namespace cmmfo::gp {

/// Shared posterior core for every GP layer: the factorization of the
/// noise-augmented Gram matrix, the target standardization, the standardized
/// targets in factor-row order, the dual weights alpha = K^{-1} y_std, and
/// the log marginal likelihood. GpRegressor (one task) and MultiTaskGp (M
/// stacked tasks) each own exactly one PosteriorState per model and mutate
/// it through two paths:
///
///  - refitDense(): O(n^3) refactorization — MLE refits and any Gram that
///    needs jitter;
///  - appendRow()/truncateTo(): O(n^2) rank-append growth for incremental
///    observation updates, with exact (bitwise) rollback for
///    Kriging-believer speculation.
///
/// `base_rows` records how many factor rows come from the last dense
/// factorization; everything above it was rank-appended. Checkpoints journal
/// the split so a resumed run can rebuild the factor as dense(base) followed
/// by the same appends — bit-identical to the uninterrupted evolution.
struct PosteriorState {
  std::optional<linalg::Cholesky> chol;
  std::vector<linalg::Standardizer> standardizers;
  Vec y_std;
  Vec alpha;
  double lml = 0.0;
  std::size_t base_rows = 0;
  /// Self-healing ledger: refitDense() factorizations that only succeeded
  /// after escalating past the standard jitter ladder, and the jitter the
  /// last such rescue needed. Cumulative over the model's lifetime (not
  /// cleared by reset()) so callers can diff across a fit to detect a
  /// rescue and emit a recovery diag record.
  std::uint64_t jitter_escalations = 0;
  double last_escalation_jitter = 0.0;

  bool fitted() const { return chol.has_value(); }
  std::size_t rows() const { return chol ? chol->dim() : 0; }

  /// Factorize the noise-augmented Gram. On failure of the standard jitter
  /// ladder (1e-10 growing 10x for 10 tries) the ladder is escalated from a
  /// larger base with more tries — a rescue for Grams so degenerate the
  /// routine remedy is insufficient (counted in jitter_escalations). Resets
  /// the append base to the full size. Returns false only when even the
  /// escalated ladder fails (e.g. non-finite Gram entries).
  bool refitDense(const linalg::Matrix& gram_with_noise);

  /// Rank-append one factor row (Cholesky::appendRow). A false return means
  /// the update is not numerically safe and the caller must refitDense.
  bool appendRow(const Vec& cross, double diag);

  /// Exact rollback to the leading `n` factor rows; alpha/lml are stale
  /// until the next solveTargets().
  void truncateTo(std::size_t n);

  /// Recompute alpha and the LML from y_std (callers restandardize and fill
  /// y_std first; targets do not enter the factor, so this is the whole
  /// O(n^2) tail of an append).
  void solveTargets();

  void reset();
};

}  // namespace cmmfo::gp
