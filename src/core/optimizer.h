#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/surrogate.h"
#include "hls/design_space.h"
#include "obs/recorder.h"
#include "runtime/scheduler.h"
#include "sim/tool.h"

namespace cmmfo::obs {
class Span;
}  // namespace cmmfo::obs

namespace cmmfo::core {

/// Seed-design strategy for the initial samples (Algorithm 2 line 4).
enum class InitDesign {
  kRandom,   ///< uniform random subset (the paper's choice)
  kMaximin,  ///< greedy maximin space-filling design
};

struct OptimizerOptions {
  /// Initial random samples per fidelity; nested (X_impl ⊆ X_syn ⊆ X_hls),
  /// as required by Algorithm 2 line 4. The paper uses 8 at the lowest
  /// fidelity.
  int n_init_hls = 8;
  int n_init_syn = 5;
  int n_init_impl = 3;
  /// Optimization steps N_iter (paper: 40) — the total number of BO
  /// proposals, regardless of batch size, so runs at different batch sizes
  /// spend (to first order) the same charged tool time.
  int n_iter = 40;
  /// Monte-Carlo samples per EIPV evaluation.
  int mc_samples = 32;
  /// Candidate subset size scanned per fidelity per step (the paper
  /// traverses the full space; a uniformly drawn subset preserves the
  /// argmax in expectation at a fraction of the cost).
  int max_candidates = 400;
  /// Re-run hyperparameter MLE every k-th round. Rounds in between absorb
  /// the new observations with O(n^2) rank-append posterior updates (dense
  /// refits only where an incremental update is unsound). 1 = full MLE
  /// every round.
  int refit_every = 1;
  SurrogateOptions surrogate;
  /// Apply the Eq. (10) fidelity-cost penalty.
  bool cost_penalty = true;
  /// Invalid designs get objectives this many times worse than the current
  /// worst (Sec. IV-C: "10x worse than the current worst-case").
  double invalid_penalty = 10.0;
  std::uint64_t seed = 1;
  InitDesign init_design = InitDesign::kRandom;

  // ---- Parallel evaluation runtime (extension beyond the paper). ----
  /// Proposals per BO round (q of q-PEIPV), selected greedily with the
  /// Kriging-believer strategy. The first pick fixes the round's fidelity
  /// (the Eq. 10 trade-off) and the believers diversify configs within that
  /// stage, so a round's jobs have comparable cost and the farm stays
  /// utilized. 1 reproduces the paper's sequential Algorithm 2 bit-for-bit.
  int batch_size = 1;
  /// Width of the simulated tool farm the scheduler dispatches onto. For a
  /// fixed seed the optimization trajectory is independent of this value;
  /// only the simulated wall-clock changes. (In async mode the width IS
  /// trajectory-relevant: it caps how many believer proposals fly at once.)
  int n_workers = 1;
  /// Event-driven pipeline: instead of fidelity-homogeneous Kriging-
  /// believer ROUNDS (propose a batch, wait for every worker, update), the
  /// moment a worker frees up it pulls a fresh argmax-PEIPV proposal
  /// conditioned on the current posterior plus believer fantasies for every
  /// job still in flight — heterogeneous fidelities fly simultaneously and
  /// one slow impl job no longer idles the pool. Each stepRound() processes
  /// ONE completion event (the round-equivalent checkpoint/diag boundary);
  /// believer fantasies are invalidated and re-derived from the committed
  /// posterior every time a real result lands. With n_workers=1 the
  /// trajectory is bit-identical to the synchronous batch_size=1 path
  /// (the paper's Algorithm 2). Async and sync journals are mutually
  /// incompatible (the fingerprint differs by design).
  bool async = false;

  // ---- Fault tolerance (extension beyond the paper). ----
  /// Retry/backoff/timeout policy for tool failures injected by the
  /// simulator's sim::FaultParams. A strict no-op when faults are off.
  runtime::RetryPolicy retry;
  /// Journal file for crash-safe checkpoint/resume; empty disables
  /// checkpointing. The full BO state is written (atomically) after the
  /// initialization round and after every BO round, as a CRC-32C framed
  /// log holding the current state plus up to two predecessors (torn
  /// tails are detected and rolled back on load). A write failure throws.
  std::string checkpoint_path;
  /// Resume from `checkpoint_path` if it holds a valid journal for this
  /// exact (options, seed, space) — otherwise start cold. Resumed runs are
  /// trajectory-identical to uninterrupted ones.
  bool resume = false;
  /// Stop (with a final checkpoint) after this many BO rounds in this
  /// process; 0 = run to completion. Simulates a crash/preemption for the
  /// kill-and-resume tests and for externally orchestrated time slicing.
  int max_rounds = 0;
  /// Stop (with a final checkpoint) once the scheduler's cumulative charged
  /// tool seconds reach this budget; 0 = unlimited. Checked at round
  /// boundaries, so the round that crosses the budget still completes —
  /// matching how a real farm cannot claw back a dispatched Vivado run.
  /// The scenario matrix uses this to give every cell the same simulated
  /// tool-time allowance regardless of space size.
  double max_charged_seconds = 0.0;

  // ---- Durability & self-healing (the server's crash-only regime). ----
  /// Resume survivability: a corrupt, truncated, empty, or
  /// fingerprint-mismatched journal is quarantined and the run starts cold
  /// with a RoundOutcome::resume_note, instead of throwing. The daemon sets
  /// this so one bad file can never abort startup; the CLI keeps the strict
  /// default (a human pointing --resume at the wrong journal wants the
  /// error).
  bool resume_lenient = false;
  /// Numerical self-healing thresholds (forced dense refits, jitter
  /// escalation reporting). See RecoveryOptions.
  RecoveryOptions recovery;
};

/// Shared multi-campaign runtime resources (the optimization server). All
/// null/zero by default, in which case the optimizer owns a private cache
/// and models an `n_workers`-wide farm — the single-campaign regime.
struct SharedRuntime {
  /// Long-lived cross-campaign evaluation cache; the optimizer keys all its
  /// traffic (and its checkpoint's cache section) under cache_namespace.
  runtime::EvalCache* cache = nullptr;
  /// Width of the shared simulated tool farm (0 = not shared). When set,
  /// the simulated wall-clock models rounds on this full width instead of
  /// OptimizerOptions::n_workers.
  int pool = 0;
  /// Benchmark/simulator fingerprint isolating this campaign's cache slice.
  std::uint64_t cache_namespace = 0;
  /// Per-campaign key for the cache hit/miss ledger (0 = the namespace).
  /// Campaigns sharing a namespace (same benchmark + sim seed) share
  /// artifacts but must not share counters: the ledger keeps each tenant's
  /// streamed/checkpointed cache accounting its own.
  std::uint64_t cache_ledger = 0;
};

/// Snapshot returned by each campaign step (pure observation, assembled
/// after the round's state updates). The server turns these into streamed
/// per-round records and simulated-farm placements.
struct RoundOutcome {
  int round = -1;       ///< BO round just executed; -1 for the init round
  int proposals = 0;    ///< proposals executed so far (the loop's t)
  bool done = false;    ///< no further step() will run work
  bool resumed = false; ///< this process continued from a journal
  /// Cumulative scheduler ledgers after the round.
  double charged_seconds = 0.0;
  double wall_seconds = 0.0;
  /// This round's charge alone (sum over the round's completed jobs).
  double round_charged_seconds = 0.0;
  /// Campaign-namespace cache counters after the round.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Hypervolume of the current top-fidelity observation set (NaN while
  /// empty) and the per-tool-run worker occupancy (charged + backoff
  /// seconds) of this round's jobs, in job order — the server's simulated
  /// shared-farm placement input. Pure observation.
  double hypervolume = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> job_seconds;
  /// Non-empty when a lenient resume had to repair or discard the journal
  /// (rollback to an earlier frame, quarantine, cold start); describes what
  /// happened. Constant across the run's outcomes.
  std::string resume_note;
  /// Numerical recovery actions taken during THIS round (jitter
  /// escalation, forced dense refit), human-readable.
  /// Empty in the healthy regime.
  std::vector<std::string> recovery_notes;
};

/// One tool evaluation in the candidate set CS.
struct SampleRecord {
  std::size_t config = 0;          // design-space index
  sim::Fidelity fidelity{};        // highest fidelity run for this config
  sim::Report report;              // the report at that fidelity
};

/// Per-proposal record for convergence analysis.
struct IterationLog {
  int iteration = 0;          // global proposal index (0 .. n_iter-1)
  sim::Fidelity fidelity{};   // fidelity chosen at line 11
  std::size_t config = 0;     // x* chosen at line 11
  double peipv = 0.0;         // winning acquisition value
  int round = 0;              // BO round this proposal was batched into
};

struct OptimizeResult {
  /// All evaluated configurations (initialization + BO picks), each with
  /// its highest-fidelity report — the CS of Algorithm 2.
  std::vector<SampleRecord> cs;
  /// One entry per executed BO proposal.
  std::vector<IterationLog> iterations;
  /// Total simulated tool time charged (Table I's running-time metric).
  double tool_seconds = 0.0;
  /// Simulated elapsed time on the n_workers-wide farm: sum over rounds of
  /// each round's makespan. Equals tool_seconds when batch_size and
  /// n_workers are 1 (the sequential regime).
  double wall_seconds = 0.0;
  /// Number of FPGA-tool invocations.
  int tool_runs = 0;
  /// Proposals answered from the evaluation cache without a tool run.
  int cache_hits = 0;
  /// How many BO picks landed on each fidelity (diagnostics).
  std::array<int, sim::kNumFidelities> picks_per_fidelity{};

  // ---- Fault-tolerance accounting (all zero in the healthy regime). ----
  /// Flow attempts, including crashed / timed-out ones.
  int attempts = 0;
  int transient_failures = 0;
  int timeouts = 0;
  int persistent_failures = 0;
  /// Jobs that fell back to a lower fidelity after exhausting retries.
  int degraded_jobs = 0;
  /// Charged tool-seconds burned by failed attempts (subset of
  /// tool_seconds — honest accounting of the retry cost).
  double wasted_seconds = 0.0;
  /// Scheduler backoff waits (extend wall_seconds, never charged).
  double backoff_seconds = 0.0;
  /// True when this result continued from a checkpoint journal.
  bool resumed = false;
  /// BO rounds executed by THIS process (== total rounds unless resumed or
  /// stopped early by OptimizerOptions::max_rounds).
  int rounds_run = 0;
};

/// The paper's optimizer: correlated multi-objective GPs per fidelity,
/// non-linearly chained across fidelities, driven by cost-penalized
/// Monte-Carlo EIPV (Algorithm 2). Baselines reuse this driver with other
/// SurrogateOptions (e.g. FPL18 = linear + independent).
///
/// With batch_size > 1 each round proposes a q-PEIPV batch built greedily by
/// Kriging-believer conditioning (the posterior is refit on the predicted
/// mean of each already-selected point before the next argmax), and the
/// batch runs as one round on the runtime::ToolScheduler's simulated
/// n_workers-wide farm.
class CorrelatedMfMoboOptimizer {
 public:
  CorrelatedMfMoboOptimizer(const hls::DesignSpace& space,
                            sim::FpgaToolSim& sim, OptimizerOptions opts = {},
                            SharedRuntime shared = {});

  /// Run to completion: a thin wrapper over the campaign-stepping API below
  /// (start(); while (!done()) stepRound(); finish()).
  OptimizeResult run();

  // ---- Campaign-stepping API (the server interleaves rounds from many
  // campaigns over one shared farm/cache; see core::CampaignStepper). ----
  /// Bind runtime resources, resume from the checkpoint journal or run the
  /// initialization round, and write checkpoint 0. Must be called exactly
  /// once, before the first stepRound().
  RoundOutcome start();
  /// One step of Algorithm 2's loop (lines 6-15): commit the posterior on
  /// the real datasets, admit proposals, collect results, then one shared
  /// tail records them, logs diagnostics/metrics, checkpoints and applies
  /// the preemption and budget stops. Requires start(); no-op when done().
  /// Two admission policies share everything else:
  ///  - sync (default): one fidelity-homogeneous Kriging-believer batch of
  ///    batch_size picks, collected behind a barrier — one step per round;
  ///  - async: re-derive believers for the jobs still in flight, top the
  ///    farm up with one proposal per free worker, then take the earliest
  ///    simulated completion — one step per completion event, so the
  ///    server's FairScheduler charges async campaigns per completion.
  /// Charged tool-seconds come from one ledger in both modes, the
  /// scheduler's job-ordered ToolScheduler::deterministicToolSeconds().
  RoundOutcome stepRound();
  /// True once the proposal budget is spent, the space is exhausted, or
  /// OptimizerOptions::max_rounds stopped this process.
  bool done() const;
  /// Final accounting tallies; after this the result is complete. Both
  /// run() and the server call it exactly once, after done().
  OptimizeResult finish();
  /// The in-progress result (valid between start() and finish()).
  const OptimizeResult& partialResult() const { return result_; }

  /// Surrogate state, e.g. after run() (for inspection / tests). A batch
  /// round's believers leave the levels above its fidelity unreadable until
  /// the next commit, so this commits the observations first when they do.
  const MultiFidelitySurrogate& surrogate();

 private:
  struct FidelityData {
    std::vector<std::size_t> configs;
    std::vector<gp::Vec> y;  // objectives, invalid entries already penalized
  };
  using Datasets = std::array<FidelityData, sim::kNumFidelities>;
  /// Argmax of the cost-penalized acquisition over (fidelity x candidate).
  struct Pick {
    std::size_t config = 0;
    sim::Fidelity fidelity = sim::Fidelity::kHls;
    double peipv = -1.0;
  };

  /// Record one scheduler result: reports of every stage up to the highest
  /// COMPLETED fidelity enter the per-fidelity datasets (line 13: X_i ∪
  /// {x*} for i up to h — degraded jobs contribute their completed prefix),
  /// and the config joins the CS. Persistent failures additionally feed the
  /// failed stage a Sec. IV-C-penalized sample so the models learn to avoid
  /// the design; transient exhaustion does not (the design is not known to
  /// be bad, the tool was merely flaky).
  void record(const runtime::EvalResult& res);
  /// Fault-tolerant init: if injected failures left a fidelity with fewer
  /// than the 2 observations the surrogate needs, draw replacement seed
  /// configs until every level is viable. No-op (and RNG-neutral) in the
  /// healthy regime.
  void reseedThinFidelities(runtime::ToolScheduler& scheduler);

  /// Checkpoint/resume plumbing. The fingerprint ties a journal to this
  /// exact (options, seed, space, fault model); resuming against anything
  /// else throws.
  std::uint64_t checkpointFingerprint() const;
  CheckpointState captureCheckpoint(int next_round) const;
  void restoreCheckpoint(const CheckpointState& st);
  /// Penalized objective vector for an invalid report at a fidelity.
  gp::Vec penalizedObjectives(const FidelityData& data) const;
  std::vector<FidelityObs> buildObsFrom(const Datasets& data) const;
  /// Scan (fidelity x candidates \ taken) for the PEIPV argmax against the
  /// given (possibly fantasy-augmented) datasets and the current surrogate.
  /// `only_fidelity` >= 0 restricts the scan to that one fidelity (used to
  /// keep a round's batch fidelity-homogeneous).
  /// When `audit` is non-null the scan additionally collects a per-fidelity
  /// acquisition audit (cost penalty + top-k candidates by PEIPV) for the
  /// flight recorder. Pure observation: the argmax is unchanged.
  Pick scanBest(const Datasets& data, const std::vector<std::size_t>& cand,
                const std::vector<char>& taken,
                const std::array<double, sim::kNumFidelities>& stage_seconds,
                const std::vector<std::vector<double>>& z,
                int only_fidelity = -1,
                std::vector<obs::FidelityAudit>* audit = nullptr) const;

  // ---- The step loop (see stepRound). ----
  /// Configs neither sampled nor in flight, in index order (RNG-free).
  std::vector<std::size_t> openConfigs() const;
  /// openConfigs() subsampled to max_candidates by one shuffle.
  std::vector<std::size_t> candidates();
  /// Fit (MLE rounds) or rank-append the real datasets, rolling back every
  /// stacked believer fantasy, plus the diag per-level ModelRecords.
  void commitPosterior(int round);
  /// Sync admission: one fidelity-homogeneous Kriging-believer batch.
  std::vector<runtime::EvalJob> admitBatch(int round);
  /// Async admission: re-derive in-flight believers, then dispatch one
  /// proposal per free worker.
  void admitAsync(int round);
  /// Book one pick: per-fidelity counts, IterationLog, acq_pick span,
  /// acq.peipv metric, DecisionRecord and the predict-before-observe
  /// snapshot. `depth` = believer fantasies the pick was conditioned on.
  void logPick(obs::Span& span, const Pick& pick, int round, int iteration,
               int depth, std::vector<obs::FidelityAudit> audit);
  /// Kriging believer: append the posterior mean of (config, fidelity) at
  /// every stage the job will run to `fantasy` (seeded from the real data
  /// on first use) and condition the surrogate on it, uncommitted. Levels
  /// at or above `read_levels` stay unread until the next commit (see
  /// MultiFidelitySurrogate::appendObservations).
  void believe(std::optional<Datasets>& fantasy, std::size_t config,
               sim::Fidelity fidelity, std::size_t read_levels);
  /// The shared tail of every step: drop consumed predictions, advance the
  /// counters, diag/metrics records, checkpoint, preemption/budget stops.
  RoundOutcome commitStep(int round,
                          const std::vector<runtime::EvalResult>& results);
  /// Hypervolume of the top-fidelity observations (NaN while empty).
  double topHypervolume(int round) const;

  /// Write the journal for a resume at `next_round` (no-op without a
  /// checkpoint path); throws std::runtime_error when the write fails.
  void writeCheckpoint(int next_round);
  /// Assemble the post-round snapshot (ledgers, cache counters, optional
  /// hypervolume + per-job seconds from `results`); `hv` reuses a
  /// hypervolume the caller already computed.
  RoundOutcome makeOutcome(int round,
                           const std::vector<runtime::EvalResult>& results,
                           std::optional<double> hv = std::nullopt);

  const hls::DesignSpace* space_;
  sim::FpgaToolSim* sim_;
  OptimizerOptions opts_;
  SharedRuntime shared_;
  MultiFidelitySurrogate surrogate_;
  rng::Rng rng_;

  // ---- Campaign-stepping state (locals of the former monolithic run()).
  // owned_cache_ backs cache_ in the single-campaign regime; with a
  // SharedRuntime both point at server-owned objects instead.
  std::unique_ptr<runtime::EvalCache> owned_cache_;
  runtime::EvalCache* cache_ = nullptr;
  std::unique_ptr<runtime::ToolScheduler> scheduler_;
  /// The journal's writer (see writeCheckpoint); empty until the first save.
  std::optional<JournalWriter> journal_;
  OptimizeResult result_;
  std::array<double, sim::kNumFidelities> stage_seconds_{};
  int t_ = 0;      ///< global proposal counter
  int round_ = 0;  ///< next BO round to execute
  /// Set when a lenient resume repaired/discarded the journal (see
  /// RoundOutcome::resume_note).
  std::string resume_note_;
  bool started_ = false;
  bool stopped_ = false;  ///< space exhausted or max_rounds hit
  bool finished_ = false;

  Datasets data_;
  std::vector<bool> sampled_;
  std::vector<SampleRecord> cs_;

  /// Flight-recorder state (only populated while obs::recorder() is
  /// enabled; extra predict() calls are RNG-free so the trajectory is
  /// bit-identical either way). Posterior (mu, var) captured at pick time,
  /// keyed by (config, fidelity), joined with the observation in record().
  struct PendingPrediction {
    gp::Vec mu;
    gp::Vec var;
    bool believer = false;
  };
  std::map<std::pair<std::size_t, int>, PendingPrediction> pending_pred_;
  int diag_round_ = -1;  ///< current BO round; -1 outside the round loop

  // ---- Async admission state (always empty when opts_.async is false). ----
  /// One dispatched-but-unprocessed proposal: the believer observation it
  /// contributes is re-derived from the committed posterior at every step
  /// (invalidate-and-refresh), so only the job identity and its simulated
  /// dispatch time need journaling.
  struct AsyncInflight {
    std::size_t config = 0;
    sim::Fidelity fidelity = sim::Fidelity::kHls;
    double sim_start = 0.0;
    std::uint64_t seq = 0;
  };
  std::vector<AsyncInflight> inflight_meta_;  // dispatch order
  /// Cumulative believer observations rolled back by posterior commits
  /// (every real result invalidates ALL stacked fantasies; diagnostics).
  long long believer_invalidations_ = 0;
  /// max_rounds preemption stops WITHOUT draining: in-flight believers stay
  /// journaled, exactly like a kill, so done() must not wait for them.
  bool preempted_ = false;
};

}  // namespace cmmfo::core
