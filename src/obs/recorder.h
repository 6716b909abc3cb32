#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/calibration.h"
#include "obs/run_meta.h"

namespace cmmfo::obs {

/// Fidelity levels and objectives mirror sim::Fidelity and the (power,
/// delay, lut) objective vector; duplicated here as plain constants so the
/// recorder stays free of sim/gp/core types (obs links only util).
inline constexpr int kNumLevels = 3;
inline constexpr int kNumObjectives = 3;

/// Candidates kept per fidelity in decision audits.
inline constexpr std::size_t kTopK = 5;

const char* levelName(int level);      // "hls" / "syn" / "impl"
const char* objectiveName(int index);  // "power" / "delay" / "lut"

/// Non-fatal run-health conditions detected by the flight recorder. None of
/// these aborts a run; each becomes a structured warning in the diagnostics
/// journal and the end-of-run summary.
enum class HealthKind : int {
  kCoverageDrift = 0,       // empirical 95% coverage far from nominal
  kGramConditionBlowup = 1, // GP Gram matrix condition estimate too large
  kMleNonConvergence = 2,   // hyperparameter MLE exhausted its iteration cap
  kCacheHitCollapse = 3,    // retired check; older journals may hold it
  kDegenerateKTask = 4,     // ICM task correlation pinned at +-1 or non-finite
  kRetryStorm = 5,          // scheduler job burned its whole retry budget
};

const char* healthKindName(HealthKind k);

struct HealthWarning {
  HealthKind kind = HealthKind::kCoverageDrift;
  int round = -1;     // -1 = not tied to a BO round
  int fidelity = -1;  // -1 = not fidelity-specific
  double value = 0.0;      // the observed quantity that tripped the check
  double threshold = 0.0;  // the configured trigger level
  std::string message;

  bool operator==(const HealthWarning&) const = default;
};

/// Trigger levels for the built-in checks. Defaults are deliberately loose —
/// they flag genuinely pathological runs, not normal BO noise. Tests tighten
/// them to force specific checks to fire.
struct HealthThresholds {
  /// Coverage below this (per fidelity, pooled over objectives) after at
  /// least min_coverage_samples observations flags drift. Nominal is 0.95.
  double min_coverage = 0.75;
  long long min_coverage_samples = 20;
  /// log10 condition estimate of the GP Gram matrix above this flags
  /// blow-up (doubles hold ~15-16 digits; 12 leaves little headroom).
  double max_gram_log10 = 12.0;
  /// Off-diagonal |task correlation| above this flags a degenerate K_task.
  double max_task_corr = 0.999;
};

/// One scored candidate inside a per-fidelity acquisition audit.
struct CandidateScore {
  std::size_t config = 0;
  double eipv = 0.0;   // raw MC-EIPV before the cost penalty
  double peipv = 0.0;  // cost_penalty * eipv, the ranking quantity (Eq. 10)
};

/// Per-fidelity slice of one acquisition decision: the cost penalty
/// T_impl/T_i applied at this fidelity and the top-k candidates by PEIPV.
struct FidelityAudit {
  int fidelity = -1;
  double cost_penalty = 1.0;
  std::vector<CandidateScore> top;  // peipv-descending, size <= kTopK
};

/// One winning pick and the cross-fidelity evidence behind it.
struct DecisionRecord {
  int round = -1;
  std::size_t winner_config = 0;
  int winner_fidelity = -1;
  double winner_peipv = 0.0;
  /// Kriging-believer fantasies the pick was conditioned on: the batch
  /// position b in the synchronous q-PEIPV path, the number of in-flight
  /// jobs in the asynchronous pipeline. 0 = pure committed posterior.
  int believer_depth = 0;
  /// Cumulative believer observations rolled back by posterior commits so
  /// far (async pipeline; every landed result invalidates ALL fantasies).
  long long believer_invalidations = 0;
  std::string rationale;  // e.g. "argmax PEIPV across fidelities"
  std::vector<FidelityAudit> fidelities;
};

/// One predict-before-observe calibration sample: the posterior (mu, var)
/// captured at pick time joined with the observation y that arrived later.
/// The recorder derives z / nlpd / in95 per objective on ingestion.
struct CalibrationSample {
  int round = -1;
  std::size_t config = 0;
  int fidelity = -1;
  /// True when the posterior included Kriging-believer fantasy observations
  /// (batch picks after the first); such samples are journaled but excluded
  /// from the running aggregates so coverage reflects the real posterior.
  bool believer = false;
  std::vector<double> y;    // observed objectives
  std::vector<double> mu;   // posterior mean per objective
  std::vector<double> var;  // posterior variance per objective
};

/// Per-round surrogate state for one fidelity level.
struct ModelRecord {
  int round = -1;
  int level = -1;
  bool correlated = false;
  /// Learned task correlation matrix from the ICM B = LL^T (Eq. 9);
  /// empty for independent-GP surrogates.
  std::vector<std::vector<double>> task_corr;
  double lml = 0.0;            // log marginal likelihood after (re)fit
  long long fit_iters = 0;     // MLE iterations actually used
  long long max_iters = 0;     // MLE iteration budget (0 = unknown)
  double cond_log10 = 0.0;     // log10 Gram condition estimate
  /// Share of ARD relevance on the lower-fidelity input dimensions of the
  /// level's Eq. (5) kernel over [x, mu_{i-1}(x)] (0 for level 0, NaN when
  /// unavailable).
  double lowfid_relevance = 0.0;
};

/// One numerical self-healing action taken by the optimizer/GP layer —
/// the *response* side of the health warnings above (PR 5 detected;
/// recovery acts). Journaled so a diagnosed run shows what degraded and
/// what the system did about it.
struct RecoveryRecord {
  int round = -1;
  int level = -1;
  std::string action;  // jitter_escalation | dense_refit
  std::string reason;
  double value = 0.0;  // jitter used / cond log10
};

/// Running calibration aggregates per (fidelity level, objective).
using LevelAggs =
    std::array<std::array<CalibrationAgg, kNumObjectives>, kNumLevels>;

/// Checkpointable digest of the recorder: running calibration aggregates
/// and counters (NOT the full journal; journals are append-only files, the
/// checkpoint only needs what future health checks depend on).
struct DiagState {
  LevelAggs agg{};
  long long rounds = 0;
  long long samples = 0;
  long long decisions = 0;
  std::vector<HealthWarning> warnings;

  bool operator==(const DiagState&) const = default;
};

/// Deterministic flight recorder for one optimization run.
///
/// Contract (shared with Tracer / MetricsRegistry): observation must never
/// perturb the run. The recorder draws no RNG, feeds nothing back into
/// algorithm state, and every mutator is a no-op while disabled — a run
/// with diagnostics on is bit-identical in trajectory to one without
/// (enforced by the seed-77 golden test).
///
/// Thread safety: one mutex guards all record state, warnings included.
/// Scheduler worker threads emit health warnings concurrently with the
/// optimizer thread; healthCount() reads an atomic so hot paths can poll
/// without the lock.
class DiagRecorder {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void setEnabled(bool on);

  void setThresholds(const HealthThresholds& t);
  /// Run provenance, rendered as the journal's first ("manifest") line.
  void setRunMeta(RunMeta meta);
  /// Optional ADRS scorer (the optimizer has no ground truth; the harness
  /// does). Called at endRound with the currently selected config ids;
  /// convergence records carry NaN ADRS when unset.
  void setAdrsScorer(
      std::function<double(const std::vector<std::size_t>&)> scorer);

  // ---- record ingestion (all no-ops while disabled) ----
  void addCalibrationSample(CalibrationSample s);
  void addDecision(DecisionRecord d);
  void addModelRecord(ModelRecord m);
  void addRecovery(RecoveryRecord r);
  void endRound(int round, double hypervolume,
                const std::vector<std::size_t>& selected,
                double charged_seconds, std::uint64_t cache_hits,
                std::uint64_t cache_misses);
  /// Direct warning emission — safe from any thread (used by scheduler
  /// workers for retry storms).
  void health(HealthWarning w);

  // ---- introspection ----
  std::size_t healthCount() const {
    return warning_count_.load(std::memory_order_acquire);
  }
  std::vector<HealthWarning> healthWarnings() const;
  std::size_t recordCount() const;
  CalibrationAgg aggregate(int level, int objective) const;

  // ---- persistence ----
  DiagState state() const;
  void restore(const DiagState& st);
  /// Drop all records, aggregates and warnings; enabled flag untouched.
  void clear();

  /// Full JSONL journal: manifest line, records in ingestion order, one
  /// summary line last. Strings are JSON-escaped; doubles are %.17g.
  std::string journal() const;
  bool writeJournal(const std::string& path) const;  // "-" = stdout
  /// Human-readable end-of-run digest (coverage, NLPD, health warnings).
  std::string summaryText() const;

 private:
  void emitLocked(HealthWarning w);  // dedupe + journal line; mu_ held
  void warnLocked(HealthWarning w);  // journal line + store; mu_ held

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  RunMeta meta_;
  HealthThresholds thresholds_;
  std::function<double(const std::vector<std::size_t>&)> adrs_scorer_;

  std::vector<std::string> lines_;  // pre-rendered record JSON, in order
  LevelAggs agg_{};
  long long rounds_ = 0;
  long long samples_ = 0;
  long long decisions_ = 0;
  /// (kind, fidelity) pairs already warned — each structural condition is
  /// reported once per run, not once per round.
  std::set<std::pair<int, int>> fired_;
  std::vector<HealthWarning> warnings_;
  std::atomic<std::size_t> warning_count_{0};  // == warnings_.size()
};

}  // namespace cmmfo::obs
