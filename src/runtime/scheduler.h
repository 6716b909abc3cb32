#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "hls/design_space.h"
#include "runtime/eval_cache.h"
#include "sim/tool.h"

namespace cmmfo::runtime {

/// One requested tool invocation: run `config` up to `fidelity`.
struct EvalJob {
  std::size_t config = 0;
  sim::Fidelity fidelity = sim::Fidelity::kHls;
};

/// How the scheduler reacts to injected tool failures (sim::FaultParams).
/// The defaults are a no-op when the fault layer is off: nothing ever
/// fails, so the attempt loop runs exactly once with no timeout and no
/// backoff, and accounting is bit-for-bit the single-attempt path.
struct RetryPolicy {
  /// Attempts per job before giving up (>= 1). Exhaustion degrades the job
  /// to its best completed prefix (see EvalResult::completed_fidelity).
  int max_attempts = 3;
  /// Kill an attempt after this many simulated seconds (0 = no timeout).
  /// Should sit above the nominal impl-stage time or healthy runs die too.
  double attempt_timeout_seconds = 0.0;
  /// Deterministic exponential backoff between attempts:
  ///   base * factor^(attempt-1) * (1 + jitter * (2u - 1)),
  /// u a keyed hash uniform in (config, fidelity, attempt). Backoff extends
  /// the round's makespan but charges no tool-seconds (the license is
  /// released while waiting).
  double backoff_base_seconds = 30.0;
  double backoff_factor = 2.0;
  double backoff_jitter_frac = 0.25;
  std::uint64_t backoff_seed = 0xB0FF;

  double backoffSeconds(std::size_t config, sim::Fidelity fidelity,
                        int attempt) const;
};

/// Outcome of one job: the per-stage reports of the flow up to the highest
/// stage that completed (entries beyond it are default-constructed), plus
/// accounting and the fault-tolerance verdict.
struct EvalResult {
  EvalJob job;
  std::array<sim::Report, sim::kNumFidelities> stages{};
  bool cache_hit = false;
  /// The job's FIRST cache probe hit. That probe is the one lookup booked on
  /// the cache hit/miss ledger; a re-probe after a failed flight join is
  /// not a new lookup. Differs from cache_hit only when such a re-probe hit.
  bool first_probe_hit = false;
  /// Served by joining another requester's concurrent tool run on the same
  /// (config, fidelity) — single-flight coalescing. Like a cache hit this
  /// charges nothing and occupies no worker in the simulated-wall model
  /// (the leader's scheduler carries the charge), but it is counted
  /// separately because the artifact did NOT exist when we asked.
  bool coalesced = false;
  /// Tool seconds charged for this job over ALL its attempts, wasted or
  /// useful (0 on a cache hit).
  double charged_seconds = 0.0;

  // ---- Fault-tolerance outcome (trivial when faults are off). ----
  /// Highest stage with a finished report; equals the requested fidelity on
  /// success, lower on a degraded job, -1 when nothing completed.
  int completed_fidelity = -1;
  /// Flow attempts consumed (0 on a cache hit, 1 in the healthy regime).
  int attempts = 0;
  /// Attempts lost to a transient crash / killed at the timeout.
  int transient_crashes = 0;
  int timeout_attempts = 0;
  /// Charged seconds burned by failed attempts (subset of charged_seconds).
  double wasted_seconds = 0.0;
  /// Scheduler wait between attempts; extends wall-clock, never charged.
  double backoff_seconds = 0.0;
  /// The job died on a per-(config, stage) persistent fault: retrying can
  /// never complete it and the optimizer should penalize the design.
  bool persistent_failure = false;
  /// Stage that caused the final failure (-1 on success).
  int failed_stage = -1;

  bool degraded() const {
    return completed_fidelity < static_cast<int>(job.fidelity);
  }
  /// The report at the requested fidelity (valid only when !degraded()).
  const sim::Report& report() const {
    return stages[static_cast<int>(job.fidelity)];
  }
  /// The report at the highest completed stage (requires completed >= 0).
  const sim::Report& completedReport() const {
    return stages[completed_fidelity];
  }
};

/// Cost accounting over scheduler rounds. Two notions of time:
///  - charged_seconds: the Table-I metric, sum of every flow attempt's tool
///    time (what you pay in tool licenses / CPU hours) — identical to the
///    sequential optimizer's total by construction;
///  - wall_seconds: the simulated elapsed time of running each round's jobs
///    on an `n_workers`-wide farm (greedy list scheduling in job order,
///    makespan = max per-worker load, retries and backoff included) — what
///    a deployment actually waits.
/// retry_seconds_wasted carves the failed-attempt share out of
/// charged_seconds so graceful degradation can be costed honestly.
struct SchedulerStats {
  double charged_seconds = 0.0;
  double wall_seconds = 0.0;
  int tool_runs = 0;    // charged flow invocations (jobs that ran, not hits)
  int cache_hits = 0;
  int coalesced = 0;    // jobs served by joining a concurrent in-flight run
  // ---- Fault-tolerance accounting. ----
  int attempts = 0;             // flow attempts, including failed ones
  int transient_failures = 0;   // attempts lost to transient crashes
  int timeouts = 0;             // attempts killed at the deadline
  int persistent_failures = 0;  // jobs abandoned on a persistent fault
  int degraded_jobs = 0;        // jobs that fell back to a lower fidelity
  double retry_seconds_wasted = 0.0;  // charged seconds of failed attempts
  double backoff_seconds = 0.0;       // wall-only wait between attempts
};

/// Executor for FPGA-tool runs on a simulated `n_workers`-wide farm.
///
/// The farm is modelled on the simulated clock alone: every job runs inline,
/// on the thread that steps the campaign, the moment it is dispatched, and
/// only its simulated window [sim_start, sim_end) overlaps other jobs.
/// runBatch() dispatches a whole round behind a barrier; the async interface
/// (submitAsync / nextCompletion) hands back one completion at a time. Either
/// way the driving thread folds each result into the ledgers in a
/// deterministic order (job order for a batch, simulated-event order for
/// completions) and books one cache lookup per job, so all model-visible
/// state is deterministic in (jobs, cache contents, fault/retry knobs) alone.
/// The farm width shapes only the simulated clock.
///
/// Failure handling: each job retries up to policy.max_attempts times with
/// deterministic backoff; a persistent fault aborts the loop immediately.
/// The job then settles on the best stage prefix any attempt completed.
class ToolScheduler {
 public:
  /// `n_workers` is the simulated farm width (clamped to >= 1). Cache
  /// traffic is keyed under `cache_ns`, so campaigns of the multi-campaign
  /// server against the same benchmark share artifacts while unrelated ones
  /// cannot collide on raw config ids. Hit/miss counts land on
  /// `cache_ledger` (0 = the namespace itself) — per CAMPAIGN, so two
  /// tenants sharing a namespace keep separate ledgers.
  ToolScheduler(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                EvalCache& cache, int n_workers, RetryPolicy policy = {},
                std::uint64_t cache_ns = 0, std::uint64_t cache_ledger = 0);

  /// Execute one round of jobs behind a barrier; results come back in job
  /// order. Requires inFlight() == 0. The round costs its makespan on the
  /// simulated clock (greedy list scheduling of the jobs in job order).
  std::vector<EvalResult> runBatch(const std::vector<EvalJob>& jobs);

  // ---- Asynchronous (event-driven) farm interface ------------------------
  // runBatch() drains a whole round before the optimizer sees anything. The
  // async interface instead hands back ONE completion at a time, in
  // deterministic SIMULATED-time order: each job is dispatched at an
  // absolute simulated start time (the clock simNow() at submission — a
  // worker that just freed), occupies its simulated worker for
  // charged + backoff seconds (zero for cache hits and coalesced joins),
  // and completes at sim_end = sim_start + duration. The job itself runs at
  // dispatch; nextCompletion() returns the in-flight job with the smallest
  // (sim_end, submission seq), so the optimizer's event order — and
  // everything downstream of it — is bit-reproducible.

  /// One processed completion event.
  struct AsyncCompletion {
    EvalResult result;
    std::uint64_t seq = 0;     // submission sequence number
    double sim_start = 0.0;    // simulated dispatch time
    double sim_end = 0.0;      // simulated completion time
  };

  /// Dispatch (and run) a job at the current simulated clock; returns its
  /// seq.
  std::uint64_t submitAsync(const EvalJob& job);
  /// Dispatch at an explicit simulated start time — the resume path re-runs
  /// journaled in-flight jobs with their ORIGINAL dispatch times (possibly
  /// before the checkpoint's clock), so the completion order replays
  /// exactly.
  std::uint64_t submitAsyncAt(const EvalJob& job, double sim_start);

  /// Return the earliest simulated completion among the in-flight jobs and
  /// fold it into the totals (per-completion accounting: this is where the
  /// FairScheduler's charge lands in the server). Requires inFlight() > 0.
  AsyncCompletion nextCompletion();

  /// Jobs dispatched and not yet returned by nextCompletion().
  std::size_t inFlight() const { return inflight_.size(); }
  /// The absolute simulated clock. Advanced by runBatch() (one round's
  /// makespan) and nextCompletion() (to the processed event's sim_end), so
  /// it always equals totals().wall_seconds.
  double simNow() const { return sim_now_; }
  /// Per-job deterministic mirror of the simulator's tool-seconds
  /// accumulator: charges fold in at completion-PROCESSING time, not when
  /// the job runs at dispatch, so the async checkpoint can journal a
  /// tool-seconds figure that excludes still-in-flight jobs and is
  /// bit-stable across runs. Equals the simulator's accumulator bitwise in
  /// the sequential healthy regime.
  double deterministicToolSeconds() const { return det_tool_seconds_; }
  /// Restore the deterministic accumulator from a checkpoint (the async
  /// resume path; pairs with FpgaToolSim::setAccounting).
  void restoreDeterministicToolSeconds(double seconds) {
    det_tool_seconds_ = seconds;
  }

  /// Accounting snapshot, returned BY VALUE under the stats lock so that a
  /// concurrent observer (metrics scraper, progress UI) polling during
  /// runBatch() never sees a torn ledger — e.g. retry_seconds_wasted from
  /// one round paired with charged_seconds from the previous one.
  SchedulerStats totals() const;
  const RetryPolicy& policy() const { return policy_; }
  int numWorkers() const { return n_workers_; }
  std::uint64_t cacheNamespace() const { return cache_ns_; }
  /// Effective counter key for this campaign's cache hit/miss ledger.
  std::uint64_t cacheLedger() const {
    return cache_ledger_ != 0 ? cache_ledger_ : cache_ns_;
  }

  /// Restore totals from a checkpoint (the caller restores the simulator's
  /// own accumulator via FpgaToolSim::setAccounting). Also re-seats the
  /// simulated clock at the restored wall figure so async dispatches
  /// continue from where the journal left off.
  void restoreTotals(const SchedulerStats& totals) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    totals_ = totals;
    sim_now_ = totals.wall_seconds;
  }

 private:
  /// Execution of one job at dispatch (cache probe, single-flight join,
  /// retry loop, store). Every probe is uncounted: the lookup is booked
  /// later by fold(), in event order, so an async checkpoint leaves out the
  /// lookups of jobs still in flight.
  EvalResult execute(const EvalJob& job);
  /// Fold results, in the given order, into round-local stats: counters,
  /// the round's makespan on the farm, the deterministic tool-seconds
  /// mirror and one cache lookup per job. A completion is a round of one.
  SchedulerStats fold(std::span<const EvalResult> results);
  /// Add a folded round to the totals, re-seat totals_.wall_seconds on the
  /// simulated clock and write the sched.* gauges from the new totals.
  void commit(const SchedulerStats& round);

  const hls::DesignSpace* space_;
  sim::FpgaToolSim* sim_;
  EvalCache* cache_;
  RetryPolicy policy_;
  std::uint64_t cache_ns_ = 0;
  std::uint64_t cache_ledger_ = 0;
  int n_workers_ = 1;
  /// Guards totals_: written by commit()/restoreTotals() on the driving
  /// thread, read by totals() possibly from observer threads.
  mutable std::mutex stats_mu_;
  SchedulerStats totals_;

  // ---- Dispatch state (driving thread only) -------------------------------
  struct Inflight {
    std::uint64_t seq = 0;
    double sim_start = 0.0;
    EvalResult result;
  };
  std::vector<Inflight> inflight_;
  double sim_now_ = 0.0;
  double det_tool_seconds_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace cmmfo::runtime
