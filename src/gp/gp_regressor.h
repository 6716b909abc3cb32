#pragma once

#include <cassert>

#include "gp/kernel.h"
#include "gp/posterior_state.h"
#include "linalg/cholesky.h"
#include "linalg/stats.h"
#include "opt/objective.h"
#include "rng/rng.h"

namespace cmmfo::gp {

/// Mean / variance of a scalar Gaussian posterior.
struct Posterior {
  double mean = 0.0;
  /// Variance of the latent function (excludes observation noise).
  double var = 0.0;
};

struct GpFitOptions {
  /// Extra random restarts for the MLE search.
  int mle_restarts = 2;
  int max_mle_iters = 60;
};

/// Single-output Gaussian-process regression with constant (empirical) mean,
/// hyperparameters fitted by maximizing the log marginal likelihood with
/// analytic gradients (Sec. II-A of the paper).
///
/// Targets are standardized internally; predictions are reported in the
/// original units.
class GpRegressor {
 public:
  /// `prototype` supplies the initial hyperparameters; the model keeps its
  /// own copy.
  explicit GpRegressor(const Matern52Ard& prototype, GpFitOptions opts = {});

  /// Fit hyperparameters on (x, y) and cache the posterior state.
  /// Requires x.size() == y.size() >= 1.
  void fit(const Dataset& x, const Vec& y, rng::Rng& rng);

  /// Rebuild the posterior state densely (O(n^3)) with current
  /// hyperparameters on new data.
  void refitPosterior(const Dataset& x, const Vec& y);

  /// Append one observation with an O(n^2) rank-append posterior update.
  /// When the factor is jitter-free the result is bit-identical to a dense
  /// refitPosterior on the extended data; if the update is numerically
  /// unsafe (jittered factor or non-positive Schur complement) the model
  /// falls back to the dense path internally. Returns true when the
  /// incremental path was taken.
  bool appendObservation(const Vec& x, double y);

  /// Exact rollback to the first n observations (bitwise inverse of a
  /// sequence of appendObservation calls) — Kriging-believer speculation.
  void truncateToPoints(std::size_t n);

  /// truncateToPoints(keep), then appendObservation(x[i], y[i]) for each i,
  /// with the targets restandardized and solved once at the end instead of
  /// after every step: the same factor, alpha and lml bits as those calls
  /// one by one. Returns true when every append took the incremental path.
  bool updatePoints(std::size_t keep, const Dataset& x, const Vec& y);

  /// Observations covered by the last dense factorization (appends sit on
  /// top). Journaled by checkpoints so resume can replay dense(base) +
  /// appends bit-identically.
  std::size_t denseBasePoints() const { return state_.base_rows; }

  Posterior predict(const Vec& x) const;
  /// predict(x).mean, bit for bit, without the variance's triangular solve.
  double predictMean(const Vec& x) const;
  /// Batched prediction: one cross-Gram build + one multi-RHS triangular
  /// solve for all candidates. Per candidate bit-identical to predict().
  std::vector<Posterior> predictBatch(const Dataset& x) const;

  /// Log marginal likelihood of the training data at the fitted
  /// hyperparameters (standardized units).
  double logMarginalLikelihood() const {
    assert(!fitted() || state_.solved);
    return state_.lml;
  }
  double noiseStddev() const;
  const Matern52Ard& kernel() const { return kernel_; }
  std::size_t numData() const { return x_.size(); }
  bool fitted() const { return state_.fitted(); }

  /// Packed hyperparameters [kernel log-params..., log noise]. Exposed so
  /// checkpoints can journal them: fit() warm-starts MLE from the current
  /// packed vector, so a resumed run must restore it to stay
  /// trajectory-identical. applyPacked is pure parameter assignment — it
  /// does not touch the cached posterior.
  Vec packedParams() const;
  void applyPacked(const Vec& packed);

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
  /// Condition estimate of the fitted (noise-augmented) Gram matrix.
  double gramConditionEstimate() const {
    return state_.chol ? state_.chol->conditionEstimate() : 1.0;
  }
  /// Factorizations that needed the escalated jitter ladder (cumulative;
  /// diffed across fits by the self-healing layer) and the jitter the last
  /// rescue used.
  std::uint64_t jitterEscalations() const { return state_.jitter_escalations; }
  double lastEscalationJitter() const { return state_.last_escalation_jitter; }

 private:
  /// Scratch buffers of negLml, owned by one MLE start.
  struct LmlWorkspace;
  /// Negative LML at packed parameters [kernel..., log noise], and its
  /// gradient when grad != nullptr.
  double negLml(const Vec& packed, Vec* grad, LmlWorkspace& ws) const;
  /// Dense rebuild of `state_` from the cached (x_, y_raw_).
  void rebuildDense();
  /// Restandardize y_raw_ into state_.y_std (alpha is stale until solved).
  void standardizeTargets();
  /// appendObservation / truncateToPoints without the target solve; the
  /// public updates end with finishUpdate().
  bool appendPoint(const Vec& x, double y);
  void truncatePoints(std::size_t n);
  /// Restandardize and re-solve the targets if a step left them stale —
  /// the O(n^2) tail of an update, once per update.
  void finishUpdate();
  /// Posterior mean in original units from the cross-covariance vector:
  /// the one mean of predict() and predictMean().
  double meanFrom(const Vec& kstar) const;

  Matern52Ard kernel_;
  GpFitOptions opts_;
  double log_noise_ = 0.0;
  int last_fit_iters_ = 0;
  int last_fit_budget_ = 0;

  // Cached training data and shared posterior core.
  Dataset x_;
  Vec y_raw_;  // original-unit targets (append paths restandardize)
  PosteriorState state_;
};

}  // namespace cmmfo::gp
