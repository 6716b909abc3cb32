#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.h"
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

// ------------------------------------------------------------- Fixtures ----

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

std::array<sim::Report, sim::kNumFidelities> flowOf(const Fixture& f,
                                                    std::size_t config,
                                                    Fidelity upto) {
  std::array<sim::Report, sim::kNumFidelities> stages{};
  for (int s = 0; s <= static_cast<int>(upto); ++s)
    stages[s] = f.sim.run(f.space.config(config), static_cast<Fidelity>(s));
  return stages;
}

// ------------------------------------------------------------- EvalCache ----

TEST(EvalCache, StoreFlowPopulatesEveryStageUpToCharged) {
  Fixture f;
  EvalCache cache;
  EXPECT_FALSE(cache.findFlow(0, Fidelity::kHls).has_value());

  cache.storeFlow(0, Fidelity::kImpl, flowOf(f, 0, Fidelity::kImpl));
  // The impl flow left every intermediate artifact behind.
  for (int s = 0; s < sim::kNumFidelities; ++s)
    EXPECT_TRUE(cache.findFlow(0, static_cast<Fidelity>(s)).has_value());
  EXPECT_EQ(cache.size(), 3u);

  const auto hls = cache.findFlow(0, Fidelity::kHls);
  EXPECT_DOUBLE_EQ((*hls)[0].delay_us,
                   f.sim.run(f.space.config(0), Fidelity::kHls).delay_us);
}

TEST(EvalCache, PartialFlowDoesNotFakeHigherStages) {
  Fixture f;
  EvalCache cache;
  cache.storeFlow(1, Fidelity::kSyn, flowOf(f, 1, Fidelity::kSyn));
  EXPECT_TRUE(cache.findFlow(1, Fidelity::kHls).has_value());
  EXPECT_TRUE(cache.findFlow(1, Fidelity::kSyn).has_value());
  EXPECT_FALSE(cache.findFlow(1, Fidelity::kImpl).has_value());
}

TEST(EvalCache, CountsHitsAndMisses) {
  Fixture f;
  EvalCache cache;
  // Probes never count; the caller books each lookup.
  cache.countLookup(cache.findFlow(5, Fidelity::kHls).has_value(), 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.storeFlow(5, Fidelity::kHls, flowOf(f, 5, Fidelity::kHls));
  EXPECT_TRUE(cache.findFlow(5, Fidelity::kHls).has_value());
  EXPECT_EQ(cache.hits(), 0u);
  cache.countLookup(true, 0);
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(EvalCache, ConcurrentSameKeyInsertStaysConsistent) {
  // Satellite: many workers finishing the same flow concurrently must be
  // safe (the tool is deterministic, so last-writer-wins is correct). Run
  // under TSan via run_benches.sh --tsan-smoke.
  Fixture f;
  EvalCache cache;
  const auto flow = flowOf(f, 4, Fidelity::kImpl);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i)
    threads.emplace_back([&cache, &flow] {
      for (int k = 0; k < 50; ++k)
        cache.storeFlow(4, Fidelity::kImpl, flow);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.size(), 3u);  // one entry per stage, no duplicates
  const auto got = cache.findFlow(4, Fidelity::kImpl);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ((*got)[2].delay_us, flow[2].delay_us);
}

TEST(EvalCache, StatsSnapshotMatchesCountersAndContentsSorted) {
  Fixture f;
  EvalCache cache;
  cache.storeFlow(9, Fidelity::kSyn, flowOf(f, 9, Fidelity::kSyn));
  cache.storeFlow(2, Fidelity::kImpl, flowOf(f, 2, Fidelity::kImpl));
  cache.countLookup(cache.findFlow(9, Fidelity::kSyn).has_value(), 0);
  cache.countLookup(cache.findFlow(50, Fidelity::kHls).has_value(), 0);
  const EvalCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, cache.size());
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  // contents() collapses the stage ladder to (config, highest fidelity),
  // sorted by config — the journal's canonical form.
  const auto contents = cache.contents();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0], (std::pair<std::size_t, Fidelity>{2, Fidelity::kImpl}));
  EXPECT_EQ(contents[1], (std::pair<std::size_t, Fidelity>{9, Fidelity::kSyn}));
  cache.restoreCounters(10, 20);
  EXPECT_EQ(cache.hits(), 10u);
  EXPECT_EQ(cache.misses(), 20u);
}

// ----------------------------------------------------------- ToolScheduler ----

std::vector<EvalJob> someJobs(const Fixture& f, std::size_t n) {
  std::vector<EvalJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const Fidelity fid = static_cast<Fidelity>(i % sim::kNumFidelities);
    jobs.push_back({(i * 17) % f.space.size(), fid});
  }
  return jobs;
}

TEST(Scheduler, ResultsComeBackInJobOrder) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 4);
  const auto jobs = someJobs(f, 12);
  const auto results = sched.runBatch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(results[i].job.config, jobs[i].config);
    EXPECT_EQ(results[i].job.fidelity, jobs[i].fidelity);
  }
}

TEST(Scheduler, CacheHitChargesNothingAndSkipsTheTool) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 2);
  const std::vector<EvalJob> jobs = {{3, Fidelity::kSyn}};
  const auto first = sched.runBatch(jobs);
  EXPECT_FALSE(first[0].cache_hit);
  EXPECT_GT(first[0].charged_seconds, 0.0);
  const double charged_after_first = f.sim.totalToolSeconds();

  const auto second = sched.runBatch(jobs);
  EXPECT_TRUE(second[0].cache_hit);
  EXPECT_DOUBLE_EQ(second[0].charged_seconds, 0.0);
  EXPECT_DOUBLE_EQ(f.sim.totalToolSeconds(), charged_after_first);
  EXPECT_EQ(sched.totals().tool_runs, 1);
  EXPECT_EQ(sched.totals().cache_hits, 1);
  // The hit returned the identical report.
  EXPECT_DOUBLE_EQ(second[0].report().delay_us, first[0].report().delay_us);
}

TEST(Scheduler, ImplRunSeedsLowerFidelityHits) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 2);
  sched.runBatch({{9, Fidelity::kImpl}});
  const runtime::SchedulerStats before = sched.totals();
  // Flow nesting: hls and syn proposals of the same config are now free.
  const auto res = sched.runBatch({{9, Fidelity::kHls}, {9, Fidelity::kSyn}});
  EXPECT_TRUE(res[0].cache_hit);
  EXPECT_TRUE(res[1].cache_hit);
  EXPECT_EQ(sched.totals().tool_runs, 1);
  EXPECT_EQ(sched.totals().cache_hits, 2);
  EXPECT_DOUBLE_EQ(sched.totals().charged_seconds - before.charged_seconds,
                   0.0);
  EXPECT_EQ(cache.hits(), 2u);  // one booked lookup per job
  EXPECT_EQ(cache.misses(), 1u);
}

// The satellite regression: accounting through the scheduler must agree
// between a sequential farm and a parallel one.
TEST(Scheduler, ParallelAccountingEqualsSequentialAccounting) {
  Fixture seq_f, par_f;
  EvalCache seq_cache, par_cache;
  ToolScheduler seq(seq_f.space, seq_f.sim, seq_cache, 1);
  ToolScheduler par(par_f.space, par_f.sim, par_cache, 4);
  const auto jobs = someJobs(seq_f, 24);
  const auto rs = seq.runBatch(jobs);
  const auto rp = par.runBatch(jobs);

  // Both ledgers are summed in job order on the calling thread, whatever
  // the farm width: bitwise identical.
  EXPECT_DOUBLE_EQ(par.totals().charged_seconds, seq.totals().charged_seconds);
  EXPECT_EQ(par.totals().tool_runs, seq.totals().tool_runs);
  EXPECT_EQ(par_f.sim.totalToolSeconds(), seq_f.sim.totalToolSeconds());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(rp[i].charged_seconds, rs[i].charged_seconds);
    EXPECT_DOUBLE_EQ(rp[i].report().power_w, rs[i].report().power_w);
  }
}

TEST(Scheduler, SequentialWallClockEqualsChargedTime) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 1);
  sched.runBatch(someJobs(f, 10));
  EXPECT_DOUBLE_EQ(sched.totals().wall_seconds,
                   sched.totals().charged_seconds);
}

// Satellite: the two accounting ledgers — the scheduler's charged_seconds
// and the simulator's own accumulator — must tie out in every regime:
// cache hits (charge nothing on both sides), multi-round batches, and
// fault-injected retries (failed attempts charge both sides).
TEST(Scheduler, AccountingTiesOutAcrossAllRegimes) {
  Fixture f;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.2;
  f.sim.setFaultParams(faults);
  EvalCache cache;
  runtime::RetryPolicy policy;
  policy.max_attempts = 3;
  ToolScheduler sched(f.space, f.sim, cache, 1, policy);

  sched.runBatch(someJobs(f, 12));      // fresh runs, some retried
  sched.runBatch(someJobs(f, 12));      // pure cache-hit round
  sched.runBatch(someJobs(f, 20));      // mixed hits and fresh runs
  EXPECT_GT(sched.totals().cache_hits, 0);
  // Sequential farm: both ledgers sum the same charges in the same order.
  EXPECT_DOUBLE_EQ(sched.totals().charged_seconds, f.sim.totalToolSeconds());

  // A later round moves both sides by the same charge.
  const double sched_before = sched.totals().charged_seconds;
  const double sim_before = f.sim.totalToolSeconds();
  sched.runBatch(someJobs(f, 6));
  EXPECT_DOUBLE_EQ(sched.totals().charged_seconds - sched_before,
                   f.sim.totalToolSeconds() - sim_before);
  EXPECT_DOUBLE_EQ(sched.totals().charged_seconds, f.sim.totalToolSeconds());
}

TEST(Scheduler, ParallelWallClockIsMakespanBounded) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 4);
  const auto jobs = someJobs(f, 16);
  const auto results = sched.runBatch(jobs);
  double max_job = 0.0;
  for (const auto& r : results) max_job = std::max(max_job, r.charged_seconds);
  const auto& s = sched.totals();
  EXPECT_LT(s.wall_seconds, s.charged_seconds);       // it actually overlaps
  EXPECT_GE(s.wall_seconds, s.charged_seconds / 4.0 - 1e-9);  // <= farm width
  EXPECT_GE(s.wall_seconds, max_job - 1e-9);          // critical path
}

// Threads of this process, or -1 when /proc/self/task cannot be read.
int processThreadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

// The farm is modelled on the simulated clock alone: a 4-wide scheduler
// runs its jobs on the calling thread and starts no tool threads.
TEST(Scheduler, RunsJobsWithoutToolThreads) {
  const int before = processThreadCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is not readable";
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 4);
  EXPECT_EQ(processThreadCount(), before);
  const auto results = sched.runBatch(someJobs(f, 8));
  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(processThreadCount(), before);
  EXPECT_LT(sched.totals().wall_seconds, sched.totals().charged_seconds);
}

// Direct hammer on the atomic accumulator (the concurrent-use fix).
TEST(ToolSim, ConcurrentRunCountedMatchesSequentialTotal) {
  Fixture seq_f, par_f;
  const int kThreads = 8, kPerThread = 25;

  double sequential = 0.0;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      const std::size_t c = (t * kPerThread + i) % seq_f.space.size();
      sequential +=
          seq_f.sim.runCounted(seq_f.space.config(c), Fidelity::kSyn)
              .tool_seconds;
    }
  EXPECT_NEAR(seq_f.sim.totalToolSeconds(), sequential, 1e-9 * sequential);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&par_f, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t c = (t * kPerThread + i) % par_f.space.size();
        par_f.sim.runCounted(par_f.space.config(c), Fidelity::kSyn);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_NEAR(par_f.sim.totalToolSeconds(), sequential, 1e-9 * sequential);
}

// ------------------------------------------- Batched optimizer semantics ----

TEST(BatchedOptimizer, KrigingBelieverBatchesNeverRepeatConfigs) {
  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.n_iter = 12;
  o.batch_size = 4;
  o.n_workers = 4;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  std::set<std::size_t> seen;
  for (const auto& rec : res.cs) EXPECT_TRUE(seen.insert(rec.config).second);
}

TEST(BatchedOptimizer, SpendsTheFullProposalBudget) {
  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.n_iter = 10;
  o.batch_size = 3;  // 10 = 3 + 3 + 3 + 1: last round is a partial batch
  o.n_workers = 3;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  EXPECT_EQ(res.cs.size(), static_cast<std::size_t>(o.n_init_hls + o.n_iter));
  int picks = 0;
  for (int c : res.picks_per_fidelity) picks += c;
  EXPECT_EQ(picks, o.n_iter);
  ASSERT_EQ(res.iterations.size(), static_cast<std::size_t>(o.n_iter));
  for (int i = 0; i < o.n_iter; ++i) {
    EXPECT_EQ(res.iterations[i].iteration, i);
    EXPECT_EQ(res.iterations[i].round, i / 3);
  }
}

TEST(BatchedOptimizer, TrajectoryIndependentOfWorkerCount) {
  core::OptimizerOptions o = fastOpts();
  o.n_iter = 8;
  o.batch_size = 4;
  o.seed = 5;

  std::vector<core::OptimizeResult> runs;
  for (const int workers : {1, 4, 8}) {
    Fixture f;
    o.n_workers = workers;
    core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
    runs.push_back(opt.run());
  }
  for (std::size_t w = 1; w < runs.size(); ++w) {
    ASSERT_EQ(runs[w].cs.size(), runs[0].cs.size());
    for (std::size_t i = 0; i < runs[0].cs.size(); ++i) {
      EXPECT_EQ(runs[w].cs[i].config, runs[0].cs[i].config);
      EXPECT_EQ(runs[w].cs[i].fidelity, runs[0].cs[i].fidelity);
    }
    EXPECT_EQ(runs[w].tool_runs, runs[0].tool_runs);
    // One job-ordered ledger: bit-stable across farm widths.
    EXPECT_EQ(runs[w].tool_seconds, runs[0].tool_seconds);
  }
  // More workers can only shrink the simulated wall-clock.
  EXPECT_GE(runs[0].wall_seconds, runs[1].wall_seconds);
  EXPECT_GE(runs[1].wall_seconds, runs[2].wall_seconds);
}

TEST(BatchedOptimizer, BatchingShrinksWallClockAtEqualChargedTime) {
  Fixture f1, f8;
  core::OptimizerOptions o = fastOpts();
  o.n_iter = 8;
  core::CorrelatedMfMoboOptimizer seq(f1.space, f1.sim, o);
  const auto rs = seq.run();
  EXPECT_DOUBLE_EQ(rs.wall_seconds, rs.tool_seconds);  // sequential regime

  o.batch_size = 8;
  o.n_workers = 8;
  core::CorrelatedMfMoboOptimizer par(f8.space, f8.sim, o);
  const auto rp = par.run();
  EXPECT_EQ(rp.tool_runs, rs.tool_runs);
  EXPECT_LT(rp.wall_seconds, 0.9 * rp.tool_seconds);
}

// Pins the exact sequential trajectory of the pre-runtime implementation
// (captured from the seed build): batch_size = n_workers = 1 must stay
// bit-for-bit equal to the paper-faithful sequential Algorithm 2.
TEST(BatchedOptimizer, SequentialGoldenTrajectoryPreserved) {
  Fixture f;
  core::OptimizerOptions o = fastOpts();
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
}

// ---- Goldens at the default 400 candidates: the chunked parallel scan ----
// The goldens above scan 60 candidates, which core::scanPeipv runs inline.
// These run spmv_crs seed 77 at default options, so every scan fans its
// 64-candidate chunks out on the fork-join pool; the CS (config, fidelity)
// sequence and the exact tool_seconds bits are pinned.

constexpr Fidelity H = Fidelity::kHls, S = Fidelity::kSyn, I = Fidelity::kImpl;

void expectGolden(const core::OptimizerOptions& o,
                  const std::vector<std::pair<std::size_t, Fidelity>>& golden,
                  std::uint64_t tool_seconds_bits) {
  Fixture f;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  ASSERT_EQ(res.cs.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(res.cs[i].config, golden[i].first) << "at index " << i;
    EXPECT_EQ(res.cs[i].fidelity, golden[i].second) << "at index " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(res.tool_seconds), tool_seconds_bits)
      << res.tool_seconds;
  EXPECT_EQ(res.tool_runs, static_cast<int>(golden.size()));
  EXPECT_EQ(res.cache_hits, 0);
}

core::OptimizerOptions seed77Defaults() {
  core::OptimizerOptions o;
  o.seed = 77;
  return o;
}

TEST(ChunkedScanGolden, SyncSeed77) {
  const std::vector<std::pair<std::size_t, Fidelity>> golden = {
      {275, I}, {184, I}, {132, I}, {228, S}, {20, S}, {89, H}, {194, H},
      {57, H}, {69, H}, {51, H}, {36, S}, {60, H}, {93, S}, {3, H}, {0, H},
      {5, H}, {1, H}, {52, S}, {6, H}, {25, H}, {13, H}, {9, H}, {14, H},
      {10, H}, {2, H}, {11, H}, {7, H}, {15, H}, {4, S}, {97, H}, {241, H},
      {49, H}, {29, S}, {197, H}, {12, H}, {77, S}, {161, H}, {33, H}, {19, S},
      {63, S}, {193, H}, {16, S}, {204, H}, {252, H}, {8, H}, {255, H},
      {217, H}, {133, H},
  };
  expectGolden(seed77Defaults(), golden, 0x40b47d7bdd8c5fa2ull);
}

TEST(ChunkedScanGolden, BatchB4W4Seed77) {
  core::OptimizerOptions o = seed77Defaults();
  o.batch_size = 4;
  o.n_workers = 4;
  const std::vector<std::pair<std::size_t, Fidelity>> golden = {
      {275, I}, {184, I}, {132, I}, {228, S}, {20, S}, {89, H}, {194, H},
      {57, H}, {69, H}, {3, H}, {35, H}, {269, H}, {9, H}, {49, H}, {109, H},
      {11, H}, {32, S}, {240, S}, {85, S}, {14, S}, {52, H}, {12, H}, {108, H},
      {25, H}, {249, H}, {7, H}, {204, H}, {117, H}, {48, S}, {65, S}, {80, S},
      {0, S}, {5, H}, {241, H}, {97, H}, {129, H}, {1, H}, {197, H}, {244, H},
      {181, H}, {13, H}, {193, H}, {37, H}, {256, H}, {6, H}, {243, H}, {4, H},
      {133, H},
  };
  expectGolden(o, golden, 0x40b4076019a1195dull);
}

TEST(ChunkedScanGolden, AsyncW4Seed77) {
  core::OptimizerOptions o = seed77Defaults();
  o.async = true;
  o.n_workers = 4;
  const std::vector<std::pair<std::size_t, Fidelity>> golden = {
      {275, I}, {184, I}, {132, I}, {228, S}, {20, S}, {89, H}, {194, H},
      {57, H}, {3, H}, {35, H}, {69, H}, {12, H}, {1, H}, {14, H}, {13, H},
      {5, H}, {9, H}, {34, S}, {6, H}, {83, S}, {10, H}, {240, S}, {197, H},
      {2, H}, {101, H}, {173, H}, {60, H}, {8, S}, {7, H}, {29, S}, {19, S},
      {247, H}, {52, S}, {133, H}, {11, S}, {108, H}, {15, H}, {204, H},
      {221, H}, {4, H}, {153, H}, {253, H}, {53, S}, {59, H}, {268, H},
      {105, S}, {176, I}, {134, I},
  };
  expectGolden(o, golden, 0x40b9d1ed89add246ull);
}

}  // namespace
}  // namespace cmmfo
