#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

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

/// Numerical self-healing policy: turns detected Gram pathologies
/// (Cholesky failure, condition blow-up) into recovery actions. Neither
/// action swaps out the model: every level always serves its GP. An MLE
/// that exhausts its L-BFGS budget is only recorded (the flight recorder's
/// `mle_non_convergence` health warning).
struct RecoveryOptions {
  /// log10 condition estimate above which a committed incrementally-grown
  /// factor is refit densely (a dense refit re-enters the jitter ladder,
  /// which rank-appends refuse). The health warning threshold is 12; the
  /// recovery action waits one more decade.
  double dense_refit_cond_log10 = 13.0;
};

/// One recovery action taken by the self-healing layer (drained by the
/// optimizer into `recovery` diag records and server event notes).
struct RecoveryEvent {
  std::string action;  ///< jitter_escalation | dense_refit
  int level = -1;
  std::string reason;
  double value = 0.0;  ///< jitter used / cond log10
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
  ///
  /// Speculation only pays for the levels it will be read at: a chained
  /// level at or above `read_levels` whose lower level changed is left as
  /// it is and marked for the commit's dense refit, which rebuilds it from
  /// the committed data exactly as it would after a speculative refit. Until
  /// that commit no predict()/predictBatch() may read such a level (debug
  /// assert), and its skipped refit records no jitter_escalation event.
  /// Ignored when `commit` is true.
  void appendObservations(const std::vector<FidelityObs>& obs, bool commit,
                          std::size_t read_levels = SIZE_MAX);
  /// True while uncommitted speculation left some level unreadable (see
  /// appendObservations).
  bool hasSkippedLevels() const;

  /// Joint posterior over the M objectives at fidelity `level`.
  gp::MultiPosterior predict(std::size_t level, const gp::Vec& x) const;
  /// predict(level, x).mean, bit for bit: the chain walked on posterior
  /// means alone (Eq. 5 augmentation, AR(1) rho * mu), with no covariance
  /// solve at any level.
  gp::Vec predictMean(std::size_t level, const gp::Vec& x) const;
  /// predictMean(l, x) for l = 0..level, bit for bit, from one walk of the
  /// chain (a believer fantasy at fidelity f reads every level up to f).
  std::vector<gp::Vec> predictMeans(std::size_t level, const gp::Vec& x) const;

  /// Batched posteriors at one fidelity: each level of the chain runs one
  /// cross-Gram + one multi-RHS solve over a candidate block. Large batches
  /// are split into blocks that run on the fork-join pool. Per candidate
  /// bit-identical to predict(). Books one gp.predict_batch_us observation
  /// per call. `lower`, when given, must hold predictBatch(level - 1, x) of
  /// this surrogate: the chain below `level` is taken from it instead of
  /// being predicted again, so a scan of every fidelity predicts each level
  /// once. Without it a non-linear chain reads the levels below through
  /// predictMean(), and an AR(1) chain predicts them in full.
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
  /// Recovery actions taken since the last drain, in occurrence order.
  std::vector<RecoveryEvent> drainRecoveryEvents() {
    std::vector<RecoveryEvent> out;
    out.swap(recovery_events_);
    return out;
  }

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
  /// Calls fn(model, mm) on each model serving `level`, in hyperState()
  /// order: the one MTGP (mm = 0), or the GP of each objective mm.
  template <class Self, class Fn>
  static void forEachModel(Self& self, std::size_t level, Fn&& fn);
  /// value(model) reduced over the models serving `level`: the MTGP's value
  /// as it is, or the M GPs' values folded into `init` in objective order.
  template <class T, class Value, class Fold>
  T foldModels(std::size_t level, T init, Value value, Fold fold) const;

  /// x, or [x, mu_{level-1}(x)] on a non-linear chain above level 0.
  gp::Vec augmented(std::size_t level, const gp::Vec& x) const;
  /// The posterior mean at `level` given `lower` = mu_{level-1}(x) (unread
  /// at level 0): one step of the Eq. 5 chain walk.
  gp::Vec levelMean(std::size_t level, const gp::Vec& x,
                    const gp::Vec& lower) const;
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
  /// Exact rollback of this level's model(s) to the first `keep` points,
  /// then rank-appends of rows [keep, o.x.size()), with one target solve
  /// per model; returns true when every append took the incremental path.
  bool updateLevelRows(std::size_t level, const FidelityObs& o,
                       std::size_t keep);
  /// Training points currently held by this level's model(s).
  std::size_t levelPoints(std::size_t level) const;
  std::vector<std::size_t> currentBaseCounts() const;
  /// Cumulative escalated-jitter factorizations across this level's models.
  std::uint64_t levelEscalations(std::size_t level) const;
  /// Diff `levelEscalations` against the last check and record a
  /// jitter_escalation recovery event when a rescue happened.
  void noteEscalations(std::size_t level);

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
  // commit rebuilds it densely. spec_skipped_[l] means speculation skipped
  // the level's refit (it is also spec_dirty_): its model is out of date
  // until that commit. committed_base_ snapshots the per-model dense-base
  // counts at the last commit for checkpointing.
  std::vector<std::size_t> committed_n_;
  std::vector<std::size_t> committed_base_;
  std::vector<char> spec_dirty_;
  std::vector<char> spec_skipped_;

  // ---- numerical self-healing state ----
  RecoveryOptions recovery_;
  std::vector<RecoveryEvent> recovery_events_;
  /// levelEscalations() value at the last noteEscalations() check.
  std::vector<std::uint64_t> esc_seen_;
};

}  // namespace cmmfo::core
