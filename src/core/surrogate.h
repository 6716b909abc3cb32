#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/gbrt.h"
#include "gp/gp_regressor.h"
#include "gp/multitask_gp.h"
#include "linalg/matrix.h"
#include "rng/rng.h"

namespace cmmfo::core {

/// Cross-fidelity structure of the surrogate (Sec. IV-A).
enum class MfKind {
  /// Eq. (5): level i+1 is a GP over [x, mu_i(x)] — the paper's model.
  kNonlinear,
  /// Kennedy-O'Hagan AR(1) chaining — the FPL18 baseline's model.
  kLinear,
  /// No cross-fidelity coupling (each level fit independently) — ablation.
  kSingleFidelity,
};

/// Multi-objective structure at each fidelity (Sec. IV-B).
enum class ObjModelKind {
  /// Eq. (9): one multi-task GP with learned task covariance — the paper.
  kCorrelated,
  /// M independent GPs — prior work [11], [12].
  kIndependent,
};

struct SurrogateOptions {
  MfKind mf = MfKind::kNonlinear;
  ObjModelKind obj = ObjModelKind::kCorrelated;
  gp::MultiTaskFitOptions mtgp;
  gp::GpFitOptions gp;
};

/// Numerical self-healing policy: turns detected health pathologies
/// (Cholesky failure, condition blow-up, MLE non-convergence) into recovery
/// actions. The MLE fallback fires on ordinary runs, the pinned seed-77
/// goldens included: `cmmfo run --benchmark sort_radix --seed 77` falls back
/// to GBRT at round 2 on levels 0 and 2 and at round 39 on level 1, and
/// reinstates level 2 once. Every golden trajectory therefore depends on
/// these thresholds (ROADMAP item 1 is to retire the fallback).
struct RecoveryOptions {
  /// Consecutive full-MLE fits at one level that exhaust the entire L-BFGS
  /// budget (lastFitIterations >= mleIterBudget) before that level's
  /// predictions fall back to a GBRT baseline. The GP keeps training in
  /// parallel; the first convergent MLE reinstates it.
  int mle_fail_streak = 3;
  /// log10 condition estimate above which a committed incrementally-grown
  /// factor is refit densely (a dense refit re-enters the jitter ladder,
  /// which rank-appends refuse). The health warning threshold is 12; the
  /// recovery action waits one more decade.
  double dense_refit_cond_log10 = 13.0;
};

/// One recovery action taken by the self-healing layer (drained by the
/// optimizer into `recovery` diag records and server event notes).
struct RecoveryEvent {
  std::string action;  ///< jitter_escalation | dense_refit |
                       ///< surrogate_fallback | surrogate_reinstated
  int level = -1;
  std::string reason;
  double value = 0.0;  ///< jitter used / cond log10 / failed-fit streak
};

/// Observations at one fidelity: shared inputs, all M objectives per row.
struct FidelityObs {
  gp::Dataset x;
  linalg::Matrix y;  // n x M
};

/// The paper's combined model (Fig. 7): one multi-objective model per
/// fidelity, chained bottom-up so higher fidelities condition on the lower
/// fidelities' predictions. Predictions are joint Gaussians over the M
/// objectives; the independent variant returns a diagonal covariance.
class MultiFidelitySurrogate {
 public:
  MultiFidelitySurrogate(std::size_t input_dim, std::size_t num_objectives,
                         std::size_t num_levels, SurrogateOptions opts = {});

  /// Fit all levels bottom-up. Every level must have >= 2 observations.
  /// When `optimize_hypers` is false only the posterior state is rebuilt
  /// (cheap path for iterations between MLE refits).
  void fit(const std::vector<FidelityObs>& obs, rng::Rng& rng,
           bool optimize_hypers = true);

  /// Absorb the observations `obs` gained since the last commit with O(n^2)
  /// rank-append posterior updates instead of dense O(n^3) refits, falling
  /// back per level where incremental updates are unsound (AR(1) residual
  /// targets, chained levels whose lower posterior changed, numerically
  /// unsafe factors). Requires fitted() and that each level's observation
  /// list is append-only relative to the last committed state.
  ///
  /// `commit == true` first rolls back any uncommitted speculation (exact
  /// factor truncation where possible) and advances the committed state to
  /// `obs`. `commit == false` stacks Kriging-believer fantasy observations
  /// on top of the committed state without advancing it; hyperparameters
  /// are never touched either way.
  void appendObservations(const std::vector<FidelityObs>& obs, bool commit);

  /// Joint posterior over the M objectives at fidelity `level`.
  gp::MultiPosterior predict(std::size_t level, const gp::Vec& x) const;

  /// Batched posteriors at one fidelity: each level of the chain runs one
  /// cross-Gram + one multi-RHS solve over a candidate block. Large batches
  /// are split into blocks that run on the fork-join pool. Per candidate
  /// bit-identical to predict(). Books one gp.predict_batch_us observation
  /// per call. `lower`, when given, must hold predictBatch(level - 1, x) of
  /// this surrogate: the chain below `level` is taken from it instead of
  /// being predicted again, so a scan of every fidelity predicts each level
  /// once.
  std::vector<gp::MultiPosterior> predictBatch(
      std::size_t level, const gp::Dataset& x,
      const std::vector<gp::MultiPosterior>* lower = nullptr) const;

  std::size_t numLevels() const { return levels_; }
  std::size_t numObjectives() const { return m_; }
  const SurrogateOptions& options() const { return opts_; }
  bool fitted() const { return fitted_; }

  /// Learned task correlation at a level (correlated variant only).
  linalg::Matrix taskCorrelation(std::size_t level) const;

  // ---- read-only diagnostics (flight recorder; never perturb the run) ----
  bool correlated() const { return opts_.obj == ObjModelKind::kCorrelated; }
  /// Log marginal likelihood at a level (summed over objectives for the
  /// independent variant). NaN before the first fit.
  double logMarginalLikelihood(std::size_t level) const;
  /// L-BFGS iterations spent by the last MLE at a level (summed over
  /// objectives for the independent variant).
  long long lastFitIterations(std::size_t level) const;
  /// Iteration budget of the last MLE at a level: max_mle_iters x the
  /// starts that fit ran (summed over objectives for the independent
  /// variant, matching lastFitIterations). 0 before the first MLE.
  long long mleIterBudget(std::size_t level) const;
  /// log10 condition estimate of the fitted Gram at a level (max over
  /// objectives for the independent variant). NaN before the first fit.
  double gramConditionLog10(std::size_t level) const;
  // ---- numerical self-healing (RecoveryOptions; see struct docs) ----
  void setRecovery(const RecoveryOptions& r) { recovery_ = r; }
  const RecoveryOptions& recovery() const { return recovery_; }
  /// True while `level` serves predictions from the GBRT fallback instead
  /// of its (still-training) GP.
  bool fallbackActive(std::size_t level) const {
    return level < fallback_.size() && fallback_[level].active;
  }
  /// Recovery actions taken since the last drain, in occurrence order.
  std::vector<RecoveryEvent> drainRecoveryEvents() {
    std::vector<RecoveryEvent> out;
    out.swap(recovery_events_);
    return out;
  }

  /// Journalable self-healing state. The MLE fail streaks decide WHEN the
  /// GBRT fallback engages, so losing them across a checkpoint boundary
  /// makes a resumed run's next refit diverge from the uninterrupted one.
  /// The fallback model itself is deterministic in (level, objective,
  /// training size) and the datasets are append-only, so journaling the
  /// engagement size is enough to rebuild it bit-identically from the
  /// restored observations' prefix.
  struct RecoveryState {
    std::vector<int> mle_fail_streak;          // per level
    std::vector<std::size_t> fallback_trained_n;  // per level; 0 = inactive
  };
  RecoveryState recoveryState() const;
  /// Restore streaks and re-engage journaled fallbacks from `obs` (the
  /// restored raw datasets). Replay, not a new action: no recovery events
  /// are emitted.
  void restoreRecoveryState(const RecoveryState& rs,
                            const std::vector<FidelityObs>& obs);

  /// Nonlinear chaining only: share of total ARD relevance (sum of 1/l_d^2)
  /// sitting on the appended lower-fidelity-prediction dimensions, i.e. how
  /// much the level's Eq. (5) kernel over [x, mu_{i-1}(x)] listens to the
  /// fidelity below rather than to the design features. Near 0 the level is
  /// an independent GP in x. NaN for level 0 or non-nonlinear chaining;
  /// averaged over objectives for the independent variant.
  double lowerFidelityRelevance(std::size_t level) const;

  /// Packed hyperparameters of every underlying GP, in a deterministic
  /// per-level (then per-objective, for the independent variant) order.
  /// Together with the datasets and the RNG state this is the whole
  /// resumable state of the surrogate: fit() warm-starts its MLE from the
  /// current packed parameters, so restoring them via setHyperState()
  /// makes a checkpointed run's next fit bit-identical to the
  /// uninterrupted one. (AR(1) rho coefficients are recomputed from data
  /// on every fit and need no serialization.)
  std::vector<std::vector<double>> hyperState() const;
  void setHyperState(const std::vector<std::vector<double>>& state);

  /// Per-model dense-base point counts of the last committed posterior
  /// (hyperState() order). A factor is always the dense factorization of
  /// its first `base` points plus sequential rank-appends of the rest, so
  /// journaling these counts lets restorePosterior() rebuild it
  /// bit-identically. Empty before the first fit.
  std::vector<std::size_t> committedBaseCounts() const;

  /// Rebuild the committed posterior from raw observations and journaled
  /// base counts: per model, a dense refit of the first `base` points then
  /// sequential rank-appends of the remainder — bit-identical to the factor
  /// the journaling run evolved incrementally. Hyperparameters must already
  /// be restored (setHyperState). An empty `base_counts` means "all dense".
  void restorePosterior(const std::vector<FidelityObs>& obs,
                        const std::vector<std::size_t>& base_counts);

 private:
  gp::Vec augmented(std::size_t level, const gp::Vec& x) const;
  /// Per-objective mean vector of the lower level at x.
  gp::Vec lowerMeans(std::size_t level, const gp::Vec& x) const;
  /// Recursive body of predictBatch for one block (the public wrapper splits
  /// the batch and times the call). `lower` is null or holds the level
  /// below's posteriors of the block.
  std::vector<gp::MultiPosterior> predictBatchImpl(
      std::size_t level, const gp::Dataset& x,
      const gp::MultiPosterior* lower) const;
  /// This level's training inputs (chained augmentation) and targets
  /// (AR(1) residuals, updating rho_) — the shared front half of fit().
  void buildLevelTraining(std::size_t level, const FidelityObs& o,
                          gp::Dataset* inputs, linalg::Matrix* targets);
  /// Dense posterior rebuild of one level on `o` (fresh augmentation/rho).
  void denseRefitLevel(std::size_t level, const FidelityObs& o);
  /// Rank-append rows [from, o.x.size()) into this level's model(s);
  /// returns true when every append took the incremental path.
  bool appendLevelRows(std::size_t level, const FidelityObs& o,
                       std::size_t from);
  /// Exact rollback of this level's model(s) to the first n points.
  void truncateLevel(std::size_t level, std::size_t n);
  /// Training points currently held by this level's model(s).
  std::size_t levelPoints(std::size_t level) const;
  std::vector<std::size_t> currentBaseCounts() const;
  /// Cumulative escalated-jitter factorizations across this level's models.
  std::uint64_t levelEscalations(std::size_t level) const;
  /// Diff `levelEscalations` against the last check and record a
  /// jitter_escalation recovery event when a rescue happened.
  void noteEscalations(std::size_t level);
  /// (Re)train the GBRT fallback for `level` on its raw observations.
  void engageFallback(std::size_t level, const FidelityObs& o, int streak);

  std::size_t input_dim_;
  std::size_t m_;
  std::size_t levels_;
  SurrogateOptions opts_;
  bool fitted_ = false;

  // Correlated variant: one multi-task GP per level.
  std::vector<gp::MultiTaskGp> mt_models_;
  // Independent variant: M single-output GPs per level.
  std::vector<std::vector<gp::GpRegressor>> ind_models_;
  // Linear MF chaining: per level (>0), per objective rho.
  std::vector<std::vector<double>> rho_;

  // Incremental-update bookkeeping. committed_n_[l] is the point count of
  // level l at the last commit (fit(), commit-append, or restore);
  // spec_dirty_[l] means the level's posterior holds speculative content
  // that factor truncation cannot undo (a dense refit on fantasy data, or
  // an internal dense fallback during a speculative append), so the next
  // commit rebuilds it densely. committed_base_ snapshots the per-model
  // dense-base counts at the last commit for checkpointing.
  std::vector<std::size_t> committed_n_;
  std::vector<std::size_t> committed_base_;
  std::vector<char> spec_dirty_;

  // ---- numerical self-healing state ----
  RecoveryOptions recovery_;
  std::vector<RecoveryEvent> recovery_events_;
  /// Consecutive budget-exhausting MLE fits per level.
  std::vector<int> mle_fail_streak_;
  /// levelEscalations() value at the last noteEscalations() check.
  std::vector<std::uint64_t> esc_seen_;
  /// Per-level GBRT fallback (one model per objective, diagonal predictive
  /// covariance = training residual variance). Trained on the level's RAW
  /// inputs — deliberately independent of the (possibly sick) GP chain.
  struct Fallback {
    bool active = false;
    std::vector<baselines::Gbrt> per_obj;
    gp::Vec resid_var;
    /// Training-set size at the last engageFallback(); journaled so resume
    /// can re-train on the exact same append-only data prefix.
    std::size_t trained_n = 0;
  };
  std::vector<Fallback> fallback_;
};

}  // namespace cmmfo::core
