#include "runtime/scheduler.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "rng/hash_noise.h"

namespace cmmfo::runtime {

double RetryPolicy::backoffSeconds(std::size_t config, sim::Fidelity fidelity,
                                   int attempt) const {
  if (backoff_base_seconds <= 0.0) return 0.0;
  double delay = backoff_base_seconds;
  for (int i = 1; i < attempt; ++i) delay *= backoff_factor;
  if (backoff_jitter_frac > 0.0) {
    const rng::HashNoise noise(backoff_seed);
    const double u = noise.uniform(config, static_cast<int>(fidelity),
                                   attempt, 206);
    delay *= 1.0 + backoff_jitter_frac * (2.0 * u - 1.0);
  }
  return delay;
}

ToolScheduler::ToolScheduler(const hls::DesignSpace& space,
                             sim::FpgaToolSim& sim, EvalCache& cache,
                             int n_workers, RetryPolicy policy)
    : space_(&space),
      sim_(&sim),
      cache_(&cache),
      policy_(policy),
      owned_pool_(std::make_unique<ThreadPool>(n_workers)),
      pool_(owned_pool_.get()) {
  policy_.max_attempts = std::max(policy_.max_attempts, 1);
}

ToolScheduler::ToolScheduler(const hls::DesignSpace& space,
                             sim::FpgaToolSim& sim, EvalCache& cache,
                             ThreadPool& shared_pool, RetryPolicy policy,
                             std::uint64_t cache_ns,
                             std::uint64_t cache_ledger)
    : space_(&space),
      sim_(&sim),
      cache_(&cache),
      policy_(policy),
      cache_ns_(cache_ns),
      cache_ledger_(cache_ledger),
      pool_(&shared_pool) {
  policy_.max_attempts = std::max(policy_.max_attempts, 1);
}

ToolScheduler::~ToolScheduler() {
  // Every accepted task eventually pushes (ThreadPool finishes queued work
  // before joining; a stopped pool made submitAsyncAt run inline), so this
  // drain terminates.
  harvest();
}

SchedulerStats ToolScheduler::totals() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return totals_;
}

EvalResult ToolScheduler::execute(const EvalJob& job) {
  // Worker-side span: pure timing/labeling, never feeds back into the run.
  obs::Span span(&obs::tracer(), "job", "scheduler");
  span.id(static_cast<std::int64_t>(job.config))
      .fidelity(static_cast<int>(job.fidelity));
  EvalResult res;
  res.job = job;
  // Probe/join loop: a miss is followed by a single-flight join, so two
  // workers (or co-tenant campaigns sharing a namespace) asking for the
  // same flow concurrently launch ONE tool run. Only the first probe's
  // outcome is booked — logically this is one lookup, however many times a
  // too-shallow or failed leader sends us back around.
  bool leading = false;
  for (bool first_probe = true;; first_probe = false) {
    const auto cached = cache_->findFlow(job.config, job.fidelity, cache_ns_);
    if (cached) {
      // Release a flight we won only after a previous leader had stored:
      // anyone who joined it meanwhile finds these artifacts too.
      if (leading) cache_->finishFlight(job.config, cache_ns_);
      res.stages = *cached;
      res.cache_hit = true;
      res.first_probe_hit = first_probe;
      res.completed_fidelity = static_cast<int>(job.fidelity);
      span.outcome("cache_hit");
      return res;  // the artifacts already exist; nothing to charge
    }
    if (leading) break;
    std::array<sim::Report, sim::kNumFidelities> served{};
    EvalCache::FlightLink leader_link;
    const EvalCache::FlightJoin join = cache_->joinFlight(
        job.config, job.fidelity, cache_ns_, cacheLedger(), &served,
        EvalCache::FlightLink{span.traceId(), span.spanId()}, &leader_link);
    if (join == EvalCache::FlightJoin::kServed) {
      res.stages = served;
      res.coalesced = true;
      res.completed_fidelity = static_cast<int>(job.fidelity);
      // Follower span linking to the leader's job span — possibly in
      // another campaign's trace (cross-tenant coalescing).
      span.link(leader_link.trace_id, leader_link.span_id)
          .outcome("coalesced");
      return res;  // the leader's run charged the leader; we pay nothing
    }
    // kLeader: probe once more before running — a leader that stored and
    // finished between our probe and our join left its ladder behind.
    // kRetry: the flight we waited out was too shallow, failed, or its
    // flow was evicted before we looked — re-probe and join again.
    leading = join == EvalCache::FlightJoin::kLeader;
  }
  // One charged invocation runs the flow up to the requested fidelity; the
  // intermediate stage reports come with it for free (a real tool run emits
  // every stage's report along the way). Under injected faults the attempt
  // loop retries transient crashes and timeouts with deterministic backoff,
  // gives up immediately on a persistent per-config failure, and settles on
  // the best stage prefix any attempt completed.
  const hls::DirectiveConfig cfg = space_->config(job.config);
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    const sim::FlowAttempt fa = sim_->runFlowAttemptCounted(
        cfg, job.fidelity, attempt, policy_.attempt_timeout_seconds);
    ++res.attempts;
    res.charged_seconds += fa.attempt_seconds;
    if (fa.ok()) {
      res.stages = fa.stages;
      res.completed_fidelity = fa.completed_upto;
      res.failed_stage = -1;
      break;
    }
    res.wasted_seconds += fa.attempt_seconds;
    res.failed_stage = fa.failed_stage;
    if (fa.status == sim::AttemptStatus::kTimeout)
      ++res.timeout_attempts;
    else if (fa.status == sim::AttemptStatus::kTransientCrash)
      ++res.transient_crashes;
    if (fa.completed_upto > res.completed_fidelity) {
      // Keep the deepest prefix seen across attempts: a crashed impl run
      // still leaves valid hls/syn artifacts behind.
      res.stages = fa.stages;
      res.completed_fidelity = fa.completed_upto;
    }
    if (fa.status == sim::AttemptStatus::kPersistentFailure) {
      res.persistent_failure = true;
      break;  // the same stage dies every time; retrying only burns hours
    }
    if (attempt < policy_.max_attempts)
      res.backoff_seconds +=
          policy_.backoffSeconds(job.config, job.fidelity, attempt);
  }
  if (res.completed_fidelity >= 0)
    cache_->storeFlow(job.config,
                      static_cast<sim::Fidelity>(res.completed_fidelity),
                      res.stages, cache_ns_);
  // Leader obligation: end the flight AFTER the store so woken waiters find
  // the artifacts — unconditionally, or a failed run would strand them.
  const int fanout = cache_->finishFlight(job.config, cache_ns_);
  if (obs::metrics().enabled()) {
    // Small exact integers from worker threads: order-independent sums, so
    // the histogram stays deterministic even though coalescing is not.
    obs::metrics().defineHistogram("slo.coalesce_fanout",
                                   obs::MetricsRegistry::countBounds());
    obs::metrics().observe("slo.coalesce_fanout", static_cast<double>(fanout));
  }
  span.attempts(res.attempts).value(res.charged_seconds);
  if (res.persistent_failure)
    span.outcome("persistent_failure");
  else if (res.completed_fidelity < 0)
    span.outcome("failed");
  else if (res.degraded())
    span.outcome("degraded");
  else
    span.outcome("ok");
  // Flight-recorder health: a job that burned its whole retry budget (or
  // died persistently) is a retry storm. Emitted from the worker thread —
  // the recorder's health sink is thread-safe by contract.
  if (obs::recorder().enabled() &&
      (res.persistent_failure ||
       res.completed_fidelity < static_cast<int>(job.fidelity))) {
    obs::HealthWarning w;
    w.kind = obs::HealthKind::kRetryStorm;
    w.fidelity = static_cast<int>(job.fidelity);
    w.value = static_cast<double>(res.attempts);
    w.threshold = static_cast<double>(policy_.max_attempts);
    w.message = "config " + std::to_string(job.config) +
                (res.persistent_failure
                     ? " fails persistently at this stage"
                     : " exhausted its retry budget short of the target "
                       "fidelity");
    obs::recorder().health(std::move(w));
  }
  return res;
}

std::vector<EvalResult> ToolScheduler::runBatch(
    const std::vector<EvalJob>& jobs) {
  assert(inflight_.empty());
  obs::Span span(&obs::tracer(), "run_batch", "scheduler");
  for (const EvalJob& job : jobs) submitAsync(job);
  if (obs::metrics().enabled()) {
    obs::MetricsRegistry& m = obs::metrics();
    m.defineHistogram("sched.queue_depth", obs::MetricsRegistry::countBounds());
    m.observe("sched.queue_depth", static_cast<double>(pool_->queueDepth()));
    m.defineHistogram("sched.batch_size", obs::MetricsRegistry::countBounds());
    m.observe("sched.batch_size", static_cast<double>(jobs.size()));
  }
  harvest();
  // inflight_ was empty, so it holds exactly this round in job order.
  std::vector<EvalResult> results;
  results.reserve(jobs.size());
  for (Inflight& e : inflight_) results.push_back(std::move(e.result));
  inflight_.clear();

  const SchedulerStats round = fold(results);
  sim_now_ += round.wall_seconds;  // round barrier: the clock jumps a makespan
  commit(round);
  span.id(static_cast<std::int64_t>(jobs.size()))
      .value(round.charged_seconds);
  return results;
}

std::uint64_t ToolScheduler::submitAsync(const EvalJob& job) {
  return submitAsyncAt(job, sim_now_);
}

std::uint64_t ToolScheduler::submitAsyncAt(const EvalJob& job,
                                           double sim_start) {
  const std::uint64_t seq = next_seq_++;
  inflight_.push_back(Inflight{job, seq, sim_start, false, {}});
  // Capture the driving thread's causal context at submit time and
  // re-install it on the worker, so job spans parent to the round or
  // proposal that dispatched them (surviving the async fantasy/invalidate
  // cycle); host-clock queue wait is observational only (never fed back)
  // and is skipped entirely while metrics are off.
  const obs::TraceContext ctx = obs::currentContext();
  const bool timed = obs::metrics().enabled();
  const auto submitted = timed ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  const bool accepted =
      pool_->submitTo(done_, [this, job, seq, ctx, timed, submitted] {
        obs::ContextGuard guard(&obs::tracer(), ctx);
        if (timed)
          obs::metrics().observe(
              "slo.queue_wait_seconds",
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - submitted)
                  .count());
        return std::make_pair(seq, execute(job));
      });
  if (!accepted) {
    // Pool stopped (server shutdown race): run inline so the result still
    // materializes and the harvest cannot deadlock.
    Inflight& e = inflight_.back();
    e.result = execute(job);
    e.harvested = true;
  }
  return seq;
}

void ToolScheduler::harvest() {
  std::size_t unharvested = 0;
  for (const Inflight& e : inflight_)
    if (!e.harvested) ++unharvested;
  while (unharvested > 0) {
    auto [seq, result] = done_.pop();
    for (Inflight& e : inflight_) {
      if (e.seq != seq) continue;
      e.result = std::move(result);
      e.harvested = true;
      --unharvested;
      break;
    }
  }
}

namespace {
/// Simulated worker occupancy of a finished job: a tool run holds its
/// worker for every attempt plus the backoff waits between them; cache
/// hits and coalesced joins occupy nothing.
double simDuration(const EvalResult& r) {
  if (r.cache_hit || r.coalesced) return 0.0;
  return r.charged_seconds + r.backoff_seconds;
}
}  // namespace

SchedulerStats ToolScheduler::fold(std::span<const EvalResult> results) {
  // Wall clock: greedy list scheduling of the harvest's charges onto the
  // farm in order; the harvest costs its makespan. With one worker and no
  // faults this degenerates to the plain sum, i.e. wall == charged, the
  // sequential regime.
  SchedulerStats round;
  std::vector<double> load(pool_->numWorkers(), 0.0);
  for (const EvalResult& r : results) {
    round.charged_seconds += r.charged_seconds;
    round.attempts += r.attempts;
    round.transient_failures += r.transient_crashes;
    round.timeouts += r.timeout_attempts;
    round.retry_seconds_wasted += r.wasted_seconds;
    round.backoff_seconds += r.backoff_seconds;
    if (r.persistent_failure) ++round.persistent_failures;
    // Degraded = genuinely fell back to a completed lower stage. Jobs that
    // completed nothing show up in the failure counters instead.
    if (!r.cache_hit && !r.persistent_failure && r.degraded() &&
        r.completed_fidelity >= 0)
      ++round.degraded_jobs;
    if (r.cache_hit) {
      ++round.cache_hits;
    } else if (r.coalesced) {
      ++round.coalesced;  // zero charge, zero occupancy: the leader pays
    } else {
      ++round.tool_runs;
      *std::min_element(load.begin(), load.end()) += simDuration(r);
    }
    // Deterministic per-job mirror of the simulator's accumulator (matches
    // the single-worker attempt order bitwise).
    det_tool_seconds_ += r.charged_seconds;
    // The worker probed UNCOUNTED; book the lookup here, in deterministic
    // order, so the checkpointed ledger is bit-stable. A coalesced join
    // still counts as the miss it was when the worker asked.
    cache_->countLookup(r.first_probe_hit, cacheLedger());
  }
  round.wall_seconds = *std::max_element(load.begin(), load.end());
  return round;
}

void ToolScheduler::commit(const SchedulerStats& round) {
  SchedulerStats after;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    totals_.charged_seconds += round.charged_seconds;
    totals_.tool_runs += round.tool_runs;
    totals_.cache_hits += round.cache_hits;
    totals_.coalesced += round.coalesced;
    totals_.attempts += round.attempts;
    totals_.transient_failures += round.transient_failures;
    totals_.timeouts += round.timeouts;
    totals_.persistent_failures += round.persistent_failures;
    totals_.degraded_jobs += round.degraded_jobs;
    totals_.retry_seconds_wasted += round.retry_seconds_wasted;
    totals_.backoff_seconds += round.backoff_seconds;
    // Wall clock IS the simulated clock: a batch advanced it by its
    // makespan, a completion to its sim_end (overlapping completions' walls
    // don't add up).
    totals_.wall_seconds = sim_now_;
    after = totals_;
  }

  // Metrics mirror the ledgers exactly: gauges are SET from the very totals
  // the scheduler reports (not re-accumulated), on the driving thread, so
  // the metrics dump ties out with totals() bit-for-bit.
  if (!obs::metrics().enabled()) return;
  obs::MetricsRegistry& m = obs::metrics();
  m.set("sched.charged_seconds", after.charged_seconds);
  m.set("sched.wall_seconds", after.wall_seconds);
  m.set("sched.retry_seconds_wasted", after.retry_seconds_wasted);
  m.set("sched.backoff_seconds", after.backoff_seconds);
  m.set("sched.tool_runs", static_cast<double>(after.tool_runs));
  m.set("sched.cache_hits", static_cast<double>(after.cache_hits));
  m.set("sched.coalesced", static_cast<double>(after.coalesced));
  m.set("sched.attempts", static_cast<double>(after.attempts));
  m.set("sched.transient_failures",
        static_cast<double>(after.transient_failures));
  m.set("sched.timeouts", static_cast<double>(after.timeouts));
  m.set("sched.persistent_failures",
        static_cast<double>(after.persistent_failures));
  m.set("sched.degraded_jobs", static_cast<double>(after.degraded_jobs));
  const double lookups = static_cast<double>(after.cache_hits + after.tool_runs);
  m.set("sched.cache_hit_rate",
        lookups > 0.0 ? static_cast<double>(after.cache_hits) / lookups : 0.0);
  m.set("sched.in_flight", static_cast<double>(inflight_.size()));
}

ToolScheduler::AsyncCompletion ToolScheduler::nextCompletion() {
  obs::Span span(&obs::tracer(), "completion", "scheduler");
  // Harvest EVERY outstanding real result first: the earliest simulated
  // event cannot be identified until every in-flight duration is known.
  // The jobs already ran concurrently on the pool, so this preserves real
  // parallelism; only the event-processing order is serialized.
  harvest();
  // Earliest simulated completion wins; ties break on submission order.
  std::size_t best = 0;
  double best_end = inflight_[0].sim_start + simDuration(inflight_[0].result);
  for (std::size_t i = 1; i < inflight_.size(); ++i) {
    const double end = inflight_[i].sim_start + simDuration(inflight_[i].result);
    if (end < best_end ||
        (end == best_end && inflight_[i].seq < inflight_[best].seq)) {
      best = i;
      best_end = end;
    }
  }
  AsyncCompletion out;
  out.result = std::move(inflight_[best].result);
  out.seq = inflight_[best].seq;
  out.sim_start = inflight_[best].sim_start;
  out.sim_end = best_end;
  inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(best));

  // The clock never runs backwards: a resumed in-flight job dispatched
  // before the checkpoint can complete "in the past" relative to events
  // already journaled.
  sim_now_ = std::max(sim_now_, out.sim_end);
  commit(fold({&out.result, 1}));
  span.id(static_cast<std::int64_t>(out.result.job.config))
      .value(out.sim_end);
  return out;
}

}  // namespace cmmfo::runtime
