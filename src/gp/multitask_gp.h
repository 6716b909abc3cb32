#pragma once

#include <cassert>

#include "gp/kernel.h"
#include "gp/posterior_state.h"
#include "linalg/cholesky.h"
#include "linalg/stats.h"
#include "opt/objective.h"
#include "rng/rng.h"

namespace cmmfo::gp {

/// Joint Gaussian posterior over M correlated objectives at one input.
struct MultiPosterior {
  Vec mean;            // length M
  linalg::Matrix cov;  // M x M (latent, no observation noise)
};

struct MultiTaskFitOptions {
  int mle_restarts = 1;
  int max_mle_iters = 50;
};

/// Correlated multi-objective Gaussian process (intrinsic coregionalization
/// model, Bonilla et al. 2008) — Eq. (9) of the paper:
///
///   Cov(f_i(x), f_j(x')) = B[i,j] * k_C(x, x'),   B = L L^T,
///
/// where k_C is a unit-variance ARD Matern-5/2 kernel over directive
/// features and B is a freely learned task covariance capturing e.g. the
/// negative latency/LUT and positive power/LUT correlations the paper calls
/// out. All M objectives are observed at every training input (the FPGA
/// tool reports all of PPA per run), which the stacked-Gram layout assumes.
class MultiTaskGp {
 public:
  /// `input_kernel` must be unit-variance (output scales live in B).
  MultiTaskGp(const Matern52Ard& input_kernel, std::size_t num_tasks,
              MultiTaskFitOptions opts = {});

  /// Fit hyperparameters; y is n x M (row i = all objectives at x[i]).
  void fit(const Dataset& x, const linalg::Matrix& y, rng::Rng& rng);
  /// Rebuild the posterior densely (O((nM)^3)) with current
  /// hyperparameters on new data; factor rows return to task-major order.
  void refitPosterior(const Dataset& x, const linalg::Matrix& y);

  /// Append one point (all M objectives) with M rank-append factor updates,
  /// O((nM)^2) total. The stacked Gram is task-major, where a new point
  /// inserts interior rows; instead the appended rows go at the factor's
  /// tail ("bordered" ordering — a symmetric permutation of the task-major
  /// matrix, so the posterior is exact; predictions agree with a dense
  /// refit to roundoff, though not bit-for-bit). Falls back to a dense
  /// rebuild when numerically unsafe; returns true on the incremental path.
  bool appendObservation(const Vec& x, const Vec& y_row);

  /// Exact rollback to the first n points (inverse of appendObservation) —
  /// Kriging-believer speculation. n must cover the dense base block.
  void truncateToPoints(std::size_t n);

  /// truncateToPoints(keep), then appendObservation(x[i], row i of y) for
  /// each i, with the targets restandardized and solved once at the end
  /// instead of after every step: the same factor, alpha and lml bits as
  /// those calls one by one. Returns true when every append took the
  /// incremental path.
  bool updatePoints(std::size_t keep, const Dataset& x,
                    const linalg::Matrix& y);

  /// Points covered by the last dense factorization (appended points sit on
  /// top in bordered order). Journaled by checkpoints so resume can replay
  /// dense(base) + appends bit-identically.
  std::size_t denseBasePoints() const { return state_.base_rows / m_; }

  MultiPosterior predict(const Vec& x) const;
  /// predict(x).mean, bit for bit, without the covariance's M triangular
  /// solves.
  Vec predictMean(const Vec& x) const;
  /// Batched prediction: one cross-Gram build + one multi-RHS solve for the
  /// whole candidate block. Per candidate bit-identical to predict().
  std::vector<MultiPosterior> predictBatch(const Dataset& x) const;

  /// Learned task covariance B (standardized-target units).
  linalg::Matrix taskCovariance() const;
  /// Task correlation matrix derived from B.
  linalg::Matrix taskCorrelation() const;
  double logMarginalLikelihood() const {
    assert(!fitted() || state_.solved);
    return state_.lml;
  }
  std::size_t numData() const { return x_.size(); }
  bool fitted() const { return state_.fitted(); }
  /// The input kernel k_C (unit variance).
  const Matern52Ard& kernel() const { return kernel_; }

  // Packed parameter layout:
  //   [0, nk)                      kernel log-params
  //   [nk, nk + M(M+1)/2)          L entries, row-major lower triangle;
  //                                diagonal entries stored as logs
  //   [nk + M(M+1)/2, ... + M)     per-task log noise stddev
  // Exposed so checkpoints can journal the hyperparameters: fit()
  // warm-starts MLE from the current packed vector, so a resumed run must
  // restore it to stay trajectory-identical. applyPacked is pure parameter
  // assignment — it does not touch the cached posterior.
  Vec packedParams() const;
  void applyPacked(const Vec& p);

  /// Negative log marginal likelihood (and, if grad != nullptr, its analytic
  /// gradient) at arbitrary packed parameters, evaluated on the cached
  /// training data (set by fit()/refitPosterior()). Exposed for the
  /// finite-difference gradient-check test battery; does not mutate state.
  double evalNegLogMarginalLikelihood(const Vec& packed,
                                      Vec* grad = nullptr) const;
  /// The MLE objective of one fit() start: evalNegLogMarginalLikelihood on
  /// a workspace the objective owns, which keeps the last value call's
  /// factor so a gradient request at that same point finishes from it
  /// (same bits as one full evaluation). Use it from one thread, while the
  /// model and its training data stay unchanged.
  opt::GradObjectiveFn lmlObjective() const;

  /// Total L-BFGS iterations spent across all restarts in the last fit().
  int lastFitIterations() const { return last_fit_iters_; }
  /// Iteration budget of the last fit(): max_mle_iters x the starts it ran
  /// (lastFitIterations() >= lastFitBudget() means every start ran out).
  int lastFitBudget() const { return last_fit_budget_; }
  /// Condition estimate of the fitted stacked (noise-augmented) Gram matrix.
  double gramConditionEstimate() const {
    return state_.chol ? state_.chol->conditionEstimate() : 1.0;
  }
  /// Factorizations that needed the escalated jitter ladder (cumulative;
  /// diffed across fits by the self-healing layer) and the jitter the last
  /// rescue used.
  std::uint64_t jitterEscalations() const { return state_.jitter_escalations; }
  double lastEscalationJitter() const { return state_.last_escalation_jitter; }

 private:
  std::size_t numPacked() const;
  static linalg::Matrix buildB(const Vec& l_entries, std::size_t m);
  /// Scratch buffers of negLml, owned by one MLE start.
  struct LmlWorkspace;
  /// Negative LML at packed parameters, and its gradient when
  /// grad != nullptr.
  double negLml(const Vec& packed, Vec* grad, LmlWorkspace& ws) const;
  /// Noise-augmented task-major stacked Gram B (x) kx + diag(noise), written
  /// into `gram` (storage reused when already nM x nM).
  void stackGram(const linalg::Matrix& kx, const linalg::Matrix& b,
                 const Vec& log_noise, linalg::Matrix& gram) const;
  /// Cache (x, y) as training data in task-major factor-row order, with
  /// standardized targets; the factor is stale until rebuildDense().
  void setData(const Dataset& x, const linalg::Matrix& y);
  /// Dense rebuild of `state_` from the cached data.
  void rebuildDense();
  /// Restandardize y_raw_ into state_.y_std in factor-row order (alpha is
  /// stale until solved).
  void standardizeTargets();
  /// appendObservation / truncateToPoints without the target solve; the
  /// public updates end with finishUpdate().
  bool appendPoint(const Vec& x, const double* y_row);
  void truncatePoints(std::size_t n);
  /// Restandardize and re-solve the targets if a step left them stale —
  /// the O((nM)^2) tail of an update, once per update.
  void finishUpdate();
  /// Cross-covariance K_* ((nM) x M, factor-row order) between the training
  /// rows and the M tasks at x.
  linalg::Matrix crossCov(const Vec& x, const linalg::Matrix& b) const;
  /// Posterior means in original units from K_*: the one mean of predict()
  /// and predictMean().
  Vec meanFrom(const linalg::Matrix& kstar) const;

  Matern52Ard kernel_;
  std::size_t m_;
  MultiTaskFitOptions opts_;
  Vec l_entries_;   // lower-triangular parameterization of B
  Vec log_noise_;   // per task
  int last_fit_iters_ = 0;
  int last_fit_budget_ = 0;

  // Cached training data and shared posterior core. After a dense refit the
  // factor rows are task-major (row = m*n + i); appended points add their M
  // rows at the tail instead, and the row_point_/row_task_ maps record the
  // factor-row -> (point, task) ordering either way.
  Dataset x_;
  linalg::Matrix y_raw_;  // n x M original-unit targets
  PosteriorState state_;
  std::vector<std::size_t> row_point_;
  std::vector<std::size_t> row_task_;
};

}  // namespace cmmfo::gp
