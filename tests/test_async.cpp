// Asynchronous (event-driven) pipeline tests: simulated-time event
// ordering, believer invalidation determinism, the W=1 bitwise parity with
// the synchronous Algorithm 2 golden, preemption + resume with in-flight
// jobs journaled, and single-flight eval coalescing.
// The Async* suites run under TSan (run_benches.sh --tsan-smoke) and ASan
// (CI) — keep them free of sleeps-as-synchronization.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.h"
#include "core/checkpoint.h"
#include "core/optimizer.h"
#include "runtime/eval_cache.h"
#include "runtime/scheduler.h"

namespace cmmfo {
namespace {

using runtime::EvalCache;
using runtime::EvalJob;
using runtime::EvalResult;
using runtime::ToolScheduler;
using sim::Fidelity;

struct Fixture {
  Fixture()
      : bm(bench_suite::makeSpmvCrs()),
        space(hls::DesignSpace::buildPruned(bm.kernel, bm.spec)),
        sim(bm.kernel, sim::DeviceModel::virtex7Vc707(), bm.sim_params, 42) {}
  bench_suite::Benchmark bm;
  hls::DesignSpace space;
  sim::FpgaToolSim sim;
};

core::OptimizerOptions fastOpts() {
  core::OptimizerOptions o;
  o.n_iter = 10;
  o.mc_samples = 16;
  o.max_candidates = 60;
  o.refit_every = 5;
  o.surrogate.mtgp.mle_restarts = 0;
  o.surrogate.mtgp.max_mle_iters = 25;
  o.surrogate.gp.mle_restarts = 0;
  o.surrogate.gp.max_mle_iters = 25;
  return o;
}

core::OptimizerOptions asyncOpts(int workers) {
  core::OptimizerOptions o = fastOpts();
  o.async = true;
  o.n_workers = workers;
  return o;
}

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void expectSameTrajectory(const core::OptimizeResult& a,
                          const core::OptimizeResult& b) {
  ASSERT_EQ(a.cs.size(), b.cs.size());
  for (std::size_t i = 0; i < a.cs.size(); ++i) {
    EXPECT_EQ(a.cs[i].config, b.cs[i].config) << "cs entry " << i;
    EXPECT_EQ(a.cs[i].fidelity, b.cs[i].fidelity) << "cs entry " << i;
    EXPECT_DOUBLE_EQ(a.cs[i].report.tool_seconds, b.cs[i].report.tool_seconds);
  }
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].config, b.iterations[i].config) << "iter " << i;
    EXPECT_EQ(a.iterations[i].fidelity, b.iterations[i].fidelity);
    EXPECT_DOUBLE_EQ(a.iterations[i].peipv, b.iterations[i].peipv);
  }
  EXPECT_EQ(a.picks_per_fidelity, b.picks_per_fidelity);
  EXPECT_DOUBLE_EQ(a.tool_seconds, b.tool_seconds);
  EXPECT_EQ(a.tool_runs, b.tool_runs);
}

// ------------------------------------------ simulated-time event order ----

// Sum of per-event charges; used to tie totals out against the event log.
double totalCharge(const std::vector<ToolScheduler::AsyncCompletion>& evs) {
  double s = 0.0;
  for (const auto& e : evs) s += e.result.charged_seconds;
  return s;
}

TEST(AsyncScheduler, CompletionOrderIsSimulatedTimeNotThreadTime) {
  // Two independent runs over identical jobs must process events in an
  // identical order and with identical accounting: simulated time alone
  // orders them.
  auto runOnce = [] {
    Fixture f;
    EvalCache cache;
    ToolScheduler sched(f.space, f.sim, cache, 4);
    const std::vector<EvalJob> jobs = {{11, Fidelity::kImpl},
                                       {23, Fidelity::kHls},
                                       {42, Fidelity::kSyn},
                                       {57, Fidelity::kHls},
                                       {75, Fidelity::kImpl}};
    for (const auto& j : jobs) sched.submitAsync(j);
    std::vector<ToolScheduler::AsyncCompletion> events;
    while (sched.inFlight() > 0) events.push_back(sched.nextCompletion());
    return std::make_pair(std::move(events), sched.totals());
  };

  const auto [ev1, tot1] = runOnce();
  const auto [ev2, tot2] = runOnce();

  ASSERT_EQ(ev1.size(), 5u);
  ASSERT_EQ(ev2.size(), 5u);
  for (std::size_t i = 0; i < ev1.size(); ++i) {
    EXPECT_EQ(ev1[i].seq, ev2[i].seq) << "event " << i;
    EXPECT_DOUBLE_EQ(ev1[i].sim_end, ev2[i].sim_end);
    EXPECT_EQ(ev1[i].result.job.config, ev2[i].result.job.config);
    EXPECT_DOUBLE_EQ(ev1[i].result.charged_seconds,
                     ev2[i].result.charged_seconds);
  }
  // Events come back sorted by (sim_end, seq), all dispatched at t=0 with
  // duration == charged (healthy regime, no backoff).
  for (std::size_t i = 0; i < ev1.size(); ++i) {
    EXPECT_DOUBLE_EQ(ev1[i].sim_start, 0.0);
    EXPECT_DOUBLE_EQ(ev1[i].sim_end, ev1[i].result.charged_seconds);
    if (i > 0) {
      EXPECT_GE(ev1[i].sim_end, ev1[i - 1].sim_end);
      if (ev1[i].sim_end == ev1[i - 1].sim_end) {
        EXPECT_GT(ev1[i].seq, ev1[i - 1].seq);
      }
    }
  }
  // The farm is 4-wide with 5 concurrent jobs at t=0, so the simulated
  // wall-clock is the latest completion, well under the serial sum.
  EXPECT_DOUBLE_EQ(tot1.wall_seconds, ev1.back().sim_end);
  EXPECT_DOUBLE_EQ(tot1.wall_seconds, tot2.wall_seconds);
  EXPECT_LT(tot1.wall_seconds, tot1.charged_seconds);
  EXPECT_EQ(tot1.tool_runs, 5);
  EXPECT_DOUBLE_EQ(totalCharge(ev1), tot1.charged_seconds);
  EXPECT_DOUBLE_EQ(tot1.charged_seconds, tot2.charged_seconds);
}

TEST(AsyncScheduler, CacheHitCompletesInstantlyAtTheCurrentClock) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 2);

  sched.submitAsync({5, Fidelity::kSyn});
  const auto first = sched.nextCompletion();
  EXPECT_FALSE(first.result.cache_hit);
  const double clock = sched.simNow();
  EXPECT_GT(clock, 0.0);

  // Same flow again: zero duration, zero charge, completes "now".
  sched.submitAsync({5, Fidelity::kHls});
  const auto hit = sched.nextCompletion();
  EXPECT_TRUE(hit.result.cache_hit);
  EXPECT_DOUBLE_EQ(hit.result.charged_seconds, 0.0);
  EXPECT_DOUBLE_EQ(hit.sim_start, clock);
  EXPECT_DOUBLE_EQ(hit.sim_end, clock);
  EXPECT_DOUBLE_EQ(sched.simNow(), clock);
  EXPECT_EQ(sched.totals().cache_hits, 1);
  // The deterministic lookup ledger booked exactly one miss + one hit.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(AsyncScheduler, ReplayedDispatchMayCompleteInThePast) {
  // The resume path re-dispatches journaled in-flight jobs at their
  // ORIGINAL sim_start, which can predate the restored clock; the clock
  // itself must never run backwards.
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 2);
  sched.submitAsync({9, Fidelity::kImpl});
  (void)sched.nextCompletion();
  const double clock = sched.simNow();

  sched.submitAsyncAt({14, Fidelity::kHls}, 0.0);
  const auto ev = sched.nextCompletion();
  EXPECT_DOUBLE_EQ(ev.sim_start, 0.0);
  EXPECT_LT(ev.sim_end, clock);          // finished before "now"
  EXPECT_DOUBLE_EQ(sched.simNow(), clock);  // clock monotone
}

// ----------------------------------------------- optimizer: W=1 parity ----

// The async pipeline with one worker never stacks a believer fantasy (the
// in-flight window is full after one dispatch), so it must replay the
// paper-faithful sequential Algorithm 2 bit for bit — same golden as the
// synchronous BatchedOptimizer.SequentialGoldenTrajectoryPreserved.
TEST(AsyncOptimizer, SingleWorkerMatchesSequentialGoldenBitwise) {
  Fixture f;
  core::OptimizerOptions o = asyncOpts(1);
  o.seed = 77;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();

  const std::vector<std::pair<std::size_t, Fidelity>> golden = {
      {275, Fidelity::kImpl}, {184, Fidelity::kImpl}, {132, Fidelity::kImpl},
      {228, Fidelity::kSyn},  {20, Fidelity::kSyn},   {89, Fidelity::kHls},
      {194, Fidelity::kHls},  {57, Fidelity::kHls},   {75, Fidelity::kHls},
      {35, Fidelity::kHls},   {3, Fidelity::kHls},    {0, Fidelity::kHls},
      {7, Fidelity::kHls},    {5, Fidelity::kHls},    {17, Fidelity::kHls},
      {52, Fidelity::kHls},   {1, Fidelity::kHls},    {15, Fidelity::kHls},
  };
  ASSERT_EQ(res.cs.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(res.cs[i].config, golden[i].first) << "at index " << i;
    EXPECT_EQ(res.cs[i].fidelity, golden[i].second) << "at index " << i;
  }
  EXPECT_DOUBLE_EQ(res.tool_seconds, 3062.9170931904364);
  EXPECT_EQ(res.tool_runs, 18);
  EXPECT_DOUBLE_EQ(res.wall_seconds, res.tool_seconds);
  EXPECT_EQ(res.cache_hits, 0);

  // And bitwise against the synchronous path at the same options.
  Fixture f2;
  core::OptimizerOptions o_sync = fastOpts();
  o_sync.seed = 77;
  core::CorrelatedMfMoboOptimizer sync(f2.space, f2.sim, o_sync);
  expectSameTrajectory(sync.run(), res);
}

// ----------------------------------- optimizer: concurrency + believers ----

TEST(AsyncOptimizer, SpendsFullBudgetWithUniqueMonotoneIterations) {
  Fixture f;
  core::OptimizerOptions o = asyncOpts(4);
  o.seed = 5;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  EXPECT_EQ(res.cs.size(), static_cast<std::size_t>(o.n_init_hls + o.n_iter));
  int picks = 0;
  for (int c : res.picks_per_fidelity) picks += c;
  EXPECT_EQ(picks, o.n_iter);
  ASSERT_EQ(res.iterations.size(), static_cast<std::size_t>(o.n_iter));
  // Iteration indices are the dispatch order: unique and monotone even
  // though completion order interleaves them.
  std::set<int> indices;
  for (const auto& it : res.iterations)
    EXPECT_TRUE(indices.insert(it.iteration).second);
  EXPECT_EQ(*indices.begin(), 0);
  EXPECT_EQ(*indices.rbegin(), o.n_iter - 1);
  // Per-config uniqueness survives speculation (believer picks must not
  // re-propose an in-flight config).
  std::set<std::size_t> seen;
  for (const auto& rec : res.cs) EXPECT_TRUE(seen.insert(rec.config).second);
  // With heterogeneous fidelities in flight the farm overlaps work.
  EXPECT_LT(res.wall_seconds, res.tool_seconds);
}

TEST(AsyncOptimizer, DeterministicUnderStragglerFaults) {
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.08;
  faults.hang_prob = 0.10;
  faults.license_stall_prob = 0.10;

  auto runOnce = [&faults] {
    Fixture f;
    f.sim.setFaultParams(faults);
    core::OptimizerOptions o = asyncOpts(4);
    o.seed = 11;
    o.retry.max_attempts = 2;
    core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
    return opt.run();
  };
  const auto a = runOnce();
  const auto b = runOnce();
  expectSameTrajectory(a, b);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.transient_failures, b.transient_failures);
  EXPECT_DOUBLE_EQ(a.wasted_seconds, b.wasted_seconds);
  EXPECT_DOUBLE_EQ(a.backoff_seconds, b.backoff_seconds);
}

TEST(AsyncOptimizer, BeatsTheRoundBarrierUnderStragglers) {
  // The async pipeline's whole point: a straggling impl run must not idle
  // the other workers at a round barrier. Same budget, same farm width.
  sim::FaultParams faults;
  faults.hang_prob = 0.15;
  faults.license_stall_prob = 0.10;

  Fixture fs;
  fs.sim.setFaultParams(faults);
  core::OptimizerOptions o_sync = fastOpts();
  o_sync.seed = 3;
  o_sync.batch_size = 4;
  o_sync.n_workers = 4;
  core::CorrelatedMfMoboOptimizer sync(fs.space, fs.sim, o_sync);
  const auto rs = sync.run();

  Fixture fa;
  fa.sim.setFaultParams(faults);
  core::OptimizerOptions o_async = asyncOpts(4);
  o_async.seed = 3;
  core::CorrelatedMfMoboOptimizer async_opt(fa.space, fa.sim, o_async);
  const auto ra = async_opt.run();

  EXPECT_EQ(static_cast<int>(ra.iterations.size()), o_async.n_iter);
  EXPECT_LT(ra.wall_seconds, rs.wall_seconds);
}

// --------------------------------------------------- preemption + resume ----

TEST(AsyncResume, PreemptionJournalsInflightAndResumesIdentically) {
  const std::string path = tempPath("cmmfo_async_resume.json");
  std::remove(path.c_str());

  core::OptimizerOptions o = asyncOpts(4);
  o.seed = 77;

  // Golden: one uninterrupted async process.
  Fixture f1;
  core::CorrelatedMfMoboOptimizer full(f1.space, f1.sim, o);
  const auto golden = full.run();

  // Preempted process: max_rounds mimics a kill — in-flight jobs are
  // journaled, NOT drained.
  Fixture f2;
  core::OptimizerOptions o_kill = o;
  o_kill.checkpoint_path = path;
  o_kill.max_rounds = 5;
  core::CorrelatedMfMoboOptimizer killed(f2.space, f2.sim, o_kill);
  const auto partial = killed.run();
  ASSERT_EQ(partial.rounds_run, 5);
  ASSERT_LT(partial.iterations.size(), golden.iterations.size());

  core::CheckpointState st;
  std::string err;
  ASSERT_TRUE(core::loadCheckpointAny(path, &st, &err)) << err;
  // A 4-wide window preempted mid-flight has speculative work outstanding.
  EXPECT_FALSE(st.async_inflight.empty());

  // Fresh process replays the in-flight jobs at their original dispatch
  // times and finishes the run on the exact same trajectory.
  Fixture f3;
  core::OptimizerOptions o_resume = o;
  o_resume.checkpoint_path = path;
  o_resume.resume = true;
  core::CorrelatedMfMoboOptimizer resumed(f3.space, f3.sim, o_resume);
  const auto finished = resumed.run();
  EXPECT_TRUE(finished.resumed);

  expectSameTrajectory(golden, finished);
  EXPECT_DOUBLE_EQ(golden.wall_seconds, finished.wall_seconds);
  EXPECT_EQ(golden.cache_hits, finished.cache_hits);
  std::remove(path.c_str());
}

// The tight per-fit MLE budget below makes every refit exhaust its L-BFGS
// iterations, so each refit ends wherever the budget stops it and the next
// one warm-starts from there. A resume across that boundary must restore the
// journaled hyperparameters and posterior exactly and finish on the
// uninterrupted run's trajectory, bit for bit.
TEST(AsyncResume, ResumeUnderExhaustedMleBudgetIsBitIdentical) {
  const std::string path = tempPath("cmmfo_async_recovery.json");
  std::remove(path.c_str());

  core::OptimizerOptions o = asyncOpts(4);
  o.seed = 5;
  o.n_iter = 16;
  o.retry.max_attempts = 3;

  Fixture f1;
  core::CorrelatedMfMoboOptimizer full(f1.space, f1.sim, o);
  const auto golden = full.run();

  // Kill between the round-5 and round-10 refits.
  Fixture f2;
  core::OptimizerOptions o_kill = o;
  o_kill.checkpoint_path = path;
  o_kill.max_rounds = 6;
  core::CorrelatedMfMoboOptimizer killed(f2.space, f2.sim, o_kill);
  (void)killed.run();

  core::CheckpointState st;
  std::string err;
  ASSERT_TRUE(core::loadCheckpointAny(path, &st, &err)) << err;
  ASSERT_FALSE(st.surrogate_hypers.empty());

  Fixture f3;
  core::OptimizerOptions o_resume = o;
  o_resume.checkpoint_path = path;
  o_resume.resume = true;
  core::CorrelatedMfMoboOptimizer resumed(f3.space, f3.sim, o_resume);
  const auto finished = resumed.run();
  EXPECT_TRUE(finished.resumed);

  expectSameTrajectory(golden, finished);
  EXPECT_DOUBLE_EQ(golden.wall_seconds, finished.wall_seconds);
  std::remove(path.c_str());
}

// Regression: a refinement pick (fidelity > 0) in flight at the kill has its
// LOWER-fidelity stages already committed and cached. The journal used to
// drop every cache entry for in-flight configs, so the resumed re-dispatch
// re-charged the committed prefix and the event order drifted. The journal
// must keep the committed prefix and the resume must replay bit-identically.
TEST(AsyncResume, ResumeKeepsCommittedCachePrefixOfInflightRefinements) {
  const std::string path = tempPath("cmmfo_async_prefix.json");
  std::remove(path.c_str());

  // Default (healthy) MLE budget: this trajectory puts a refinement in
  // flight inside the kill window.
  core::OptimizerOptions o;
  o.async = true;
  o.n_workers = 4;
  o.seed = 5;
  o.n_iter = 16;
  o.mc_samples = 16;
  o.max_candidates = 60;
  o.refit_every = 5;
  o.retry.max_attempts = 3;

  Fixture f1;
  core::CorrelatedMfMoboOptimizer full(f1.space, f1.sim, o);
  const auto golden = full.run();

  Fixture f2;
  core::OptimizerOptions o_kill = o;
  o_kill.checkpoint_path = path;
  o_kill.max_rounds = 6;
  core::CorrelatedMfMoboOptimizer killed(f2.space, f2.sim, o_kill);
  (void)killed.run();

  core::CheckpointState st;
  std::string err;
  ASSERT_TRUE(core::loadCheckpointAny(path, &st, &err)) << err;
  // Journal invariant: an in-flight config whose earlier (lower-fidelity)
  // pick already committed must keep that cache entry.
  for (const auto& e : st.async_inflight)
    for (const auto& ce : st.cs)
      if (ce.config == e.config) {
        const bool journaled =
            std::any_of(st.cache.begin(), st.cache.end(),
                        [&](const std::pair<std::size_t, int>& c) {
                          return c.first == e.config;
                        });
        EXPECT_TRUE(journaled)
            << "in-flight config " << e.config
            << " has a committed prefix but no journaled cache entry";
      }

  Fixture f3;
  core::OptimizerOptions o_resume = o;
  o_resume.checkpoint_path = path;
  o_resume.resume = true;
  core::CorrelatedMfMoboOptimizer resumed(f3.space, f3.sim, o_resume);
  const auto finished = resumed.run();
  EXPECT_TRUE(finished.resumed);

  expectSameTrajectory(golden, finished);
  EXPECT_DOUBLE_EQ(golden.wall_seconds, finished.wall_seconds);
  std::remove(path.c_str());
}

TEST(AsyncResume, FingerprintRejectsModeAndWidthChanges) {
  const std::string path = tempPath("cmmfo_async_fp.json");
  std::remove(path.c_str());

  Fixture f1;
  core::OptimizerOptions o = asyncOpts(4);
  o.seed = 77;
  o.checkpoint_path = path;
  o.max_rounds = 2;
  core::CorrelatedMfMoboOptimizer writer(f1.space, f1.sim, o);
  (void)writer.run();

  // Async journals are width-stamped: the believer window is part of the
  // trajectory, so resuming on a different farm width must be refused.
  {
    Fixture f2;
    core::OptimizerOptions o_bad = o;
    o_bad.n_workers = 2;
    o_bad.resume = true;
    o_bad.max_rounds = 0;
    core::CorrelatedMfMoboOptimizer reader(f2.space, f2.sim, o_bad);
    EXPECT_THROW((void)reader.run(), std::runtime_error);
  }
  // ... and a synchronous optimizer cannot adopt an async journal.
  {
    Fixture f3;
    core::OptimizerOptions o_sync = fastOpts();
    o_sync.seed = 77;
    o_sync.checkpoint_path = path;
    o_sync.resume = true;
    core::CorrelatedMfMoboOptimizer reader(f3.space, f3.sim, o_sync);
    EXPECT_THROW((void)reader.run(), std::runtime_error);
  }
  std::remove(path.c_str());
}

// --------------------------------------------- single-flight coalescing ----

TEST(EvalCacheCoalesce, WaiterIsServedFromTheLeadersRun) {
  Fixture f;
  EvalCache cache;

  std::array<sim::Report, sim::kNumFidelities> lstage{};
  ASSERT_EQ(cache.joinFlight(8, Fidelity::kSyn, 0, 0, &lstage),
            EvalCache::FlightJoin::kLeader);

  EvalCache::FlightJoin got = EvalCache::FlightJoin::kRetry;
  std::array<sim::Report, sim::kNumFidelities> wstage{};
  std::thread waiter([&] {
    // Ledger 42: the coalesced count lands on the WAITER's ledger.
    got = cache.joinFlight(8, Fidelity::kHls, 0, 42, &wstage);
  });
  // Release the leader only once the waiter is parked inside the flight
  // wait (it registers under the flight lock before it blocks).
  while (cache.flightWaiters(8, 0) < 1) std::this_thread::yield();

  // Leader runs the flow, stores, then releases the flight.
  std::array<sim::Report, sim::kNumFidelities> stages{};
  for (int s = 0; s <= static_cast<int>(Fidelity::kSyn); ++s)
    stages[s] = f.sim.run(f.space.config(8), static_cast<Fidelity>(s));
  cache.storeFlow(8, Fidelity::kSyn, stages);
  cache.finishFlight(8, 0);
  waiter.join();

  EXPECT_EQ(got, EvalCache::FlightJoin::kServed);
  EXPECT_DOUBLE_EQ(wstage[0].delay_us, stages[0].delay_us);
  EXPECT_EQ(cache.stats().coalesced, 1u);
  EXPECT_EQ(cache.stats(0, 42).coalesced, 1u);
  EXPECT_EQ(cache.stats(0, 7).coalesced, 0u);
}

TEST(EvalCacheCoalesce, ShallowOrEmptyLeaderSendsWaiterBackAround) {
  Fixture f;
  EvalCache cache;
  std::array<sim::Report, sim::kNumFidelities> stage{};

  const auto joinBlocked = [&cache, &stage](std::size_t config,
                                            Fidelity fidelity) {
    EvalCache::FlightJoin got = EvalCache::FlightJoin::kServed;
    std::thread waiter(
        [&] { got = cache.joinFlight(config, fidelity, 0, 0, &stage); });
    while (cache.flightWaiters(config, 0) < 1) std::this_thread::yield();
    cache.finishFlight(config, 0);  // no storeFlow: the flow crashed
    waiter.join();
    return got;
  };

  // Leader running only to HLS cannot serve an IMPL request.
  ASSERT_EQ(cache.joinFlight(3, Fidelity::kHls, 0, 0, &stage),
            EvalCache::FlightJoin::kLeader);
  EXPECT_EQ(joinBlocked(3, Fidelity::kImpl), EvalCache::FlightJoin::kRetry);

  // A deep-enough leader whose run failed (nothing stored) also retries.
  ASSERT_EQ(cache.joinFlight(4, Fidelity::kImpl, 0, 0, &stage),
            EvalCache::FlightJoin::kLeader);
  EXPECT_EQ(joinBlocked(4, Fidelity::kHls), EvalCache::FlightJoin::kRetry);
  EXPECT_EQ(cache.stats().coalesced, 0u);
}

TEST(EvalCacheCoalesce, ConcurrentIdenticalJobsLaunchOneToolRun) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 4);

  const std::vector<EvalJob> jobs(4, EvalJob{7, Fidelity::kSyn});
  const auto results = sched.runBatch(jobs);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.completed_fidelity, static_cast<int>(Fidelity::kSyn));
    EXPECT_DOUBLE_EQ(r.stages[0].delay_us, results[0].stages[0].delay_us);
  }
  const auto tot = sched.totals();
  EXPECT_EQ(tot.tool_runs, 1);
  // Jobs run at dispatch, one after another, so the other three probe
  // after the first stored: plain cache hits, never a second run.
  EXPECT_EQ(tot.cache_hits, 3);
  EXPECT_EQ(tot.coalesced, 0);
  EXPECT_EQ(cache.stats().coalesced, 0u);
  // Exactly one flow's charge; joins and hits are free.
  double charged = 0.0;
  for (const auto& r : results) charged += r.charged_seconds;
  EXPECT_DOUBLE_EQ(tot.charged_seconds, charged);
  EXPECT_EQ(tot.attempts, 1);
}

TEST(EvalCacheCoalesce, AsyncDuplicateSubmissionsCoalesceToo) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 4);
  for (int i = 0; i < 4; ++i) sched.submitAsync({31, Fidelity::kImpl});
  std::vector<ToolScheduler::AsyncCompletion> evs;
  while (sched.inFlight() > 0) evs.push_back(sched.nextCompletion());
  ASSERT_EQ(evs.size(), 4u);
  const auto tot = sched.totals();
  EXPECT_EQ(tot.tool_runs, 1);
  EXPECT_EQ(tot.cache_hits, 3);
  EXPECT_EQ(tot.coalesced, 0);
  // Hit jobs occupy no simulated worker: the makespan is one run.
  double max_charge = 0.0;
  for (const auto& e : evs)
    max_charge = std::max(max_charge, e.result.charged_seconds);
  EXPECT_DOUBLE_EQ(tot.wall_seconds, max_charge);
}

}  // namespace
}  // namespace cmmfo
