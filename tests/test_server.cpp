// Multi-campaign optimization server tests: registry concurrency, fair-share
// dispatch, the shared-farm clock, the NDJSON line protocol (stdio + TCP),
// and kill-and-resume of a whole journaled daemon.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign_stepper.h"
#include "core/optimizer.h"
#include "obs/obs.h"
#include "runtime/eval_cache.h"
#include "runtime/scheduler.h"
#include "server/campaign.h"
#include "server/fair_scheduler.h"
#include "server/farm_model.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/server.h"
#include "util/json.h"

namespace cmmfo {
namespace {

namespace fs = std::filesystem;
using server::Campaign;
using server::CampaignSpec;
using server::CampaignState;
using server::OptimizationServer;
using server::ServerOptions;

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

CampaignSpec fastSpec(const std::string& id, std::uint64_t seed,
                      std::uint64_t sim_seed, int n_iter = 6) {
  CampaignSpec spec;
  spec.id = id;
  spec.benchmark = "spmv_crs";
  spec.sim_seed = sim_seed;
  spec.opts = fastOpts();
  spec.opts.seed = seed;
  spec.opts.n_iter = n_iter;
  spec.opts.batch_size = 2;
  return spec;
}

/// Isolated single-campaign run of a spec (its own cache + pool) — the
/// golden the multiplexed server must reproduce bit-for-bit.
core::OptimizeResult runIsolated(const CampaignSpec& spec) {
  const auto space = server::makeSpaceFor(spec.benchmark);
  const auto bm = server::makeBenchmarkFor(spec.benchmark);
  const auto sim = server::makeSimFor(spec, *bm);
  core::CampaignStepper stepper(*space, *sim, spec.opts);
  while (!stepper.done()) stepper.step();
  return stepper.finish();
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

// ------------------------------------------------------ cache namespace ----

TEST(ServerCacheNamespace, KeysOnBenchmarkAndSimSeedOnly) {
  const CampaignSpec a = fastSpec("a", 7, 42);
  CampaignSpec b = a;
  b.id = "b";
  b.opts.seed = 99;  // different search trajectory, same tool ground truth
  EXPECT_EQ(server::cacheNamespaceOf(a), server::cacheNamespaceOf(b));

  CampaignSpec other_tool = a;
  other_tool.sim_seed = 43;
  EXPECT_NE(server::cacheNamespaceOf(a), server::cacheNamespaceOf(other_tool));

  CampaignSpec other_bench = a;
  other_bench.benchmark = "gemm";
  EXPECT_NE(server::cacheNamespaceOf(a),
            server::cacheNamespaceOf(other_bench));

  // 0 is reserved for the single-campaign default namespace.
  EXPECT_NE(server::cacheNamespaceOf(a), 0u);
}

TEST(ServerCacheLedger, CountersArePerLedgerWithinSharedNamespace) {
  runtime::EvalCache cache;
  const std::uint64_t ns = 7, la = 100, lb = 200;
  const std::array<sim::Report, sim::kNumFidelities> stages{};

  // One booked lookup, as a scheduler books it for its campaign's ledger.
  const auto lookup = [&cache, ns](std::size_t config, std::uint64_t ledger) {
    const bool hit =
        cache.findFlow(config, sim::Fidelity::kHls, ns).has_value();
    cache.countLookup(hit, ledger);
    return hit;
  };

  // Tenant A misses, the flow is stored, then both tenants hit it.
  EXPECT_FALSE(lookup(1, la));
  cache.storeFlow(1, sim::Fidelity::kHls, stages, ns);
  EXPECT_TRUE(lookup(1, la));
  EXPECT_TRUE(lookup(1, lb));

  const auto sa = cache.stats(ns, la);
  const auto sb = cache.stats(ns, lb);
  EXPECT_EQ(sa.hits, 1u);
  EXPECT_EQ(sa.misses, 1u);
  EXPECT_EQ(sb.hits, 1u);
  EXPECT_EQ(sb.misses, 0u);
  // Artifacts (flows/entries) stay keyed on the shared namespace.
  EXPECT_EQ(sa.flows, 1u);
  EXPECT_EQ(sb.flows, 1u);

  // Restoring A's journaled counters must not clobber B's ledger.
  cache.restoreCounters(10, 20, la);
  EXPECT_EQ(cache.stats(ns, la).hits, 10u);
  EXPECT_EQ(cache.stats(ns, la).misses, 20u);
  EXPECT_EQ(cache.stats(ns, lb).hits, 1u);

  // Ledger 0 falls back to the namespace key (single-campaign regime).
  EXPECT_EQ(cache.stats(ns).hits, 0u);
  EXPECT_FALSE(lookup(2, ns));
  EXPECT_EQ(cache.stats(ns).misses, 1u);
}

TEST(ServerCacheLedger, CoTenantsShareArtifactsButNotCounters) {
  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 2;
  OptimizationServer srv(opts);
  srv.start();
  std::string err;
  // Same benchmark + sim_seed -> one shared artifact namespace; different
  // search seeds -> different trajectories over it.
  ASSERT_TRUE(srv.submit(fastSpec("ta", 5, 21, 4), &err)) << err;
  ASSERT_TRUE(srv.submit(fastSpec("tb", 9, 21, 4), &err)) << err;
  srv.drain();

  const auto a = srv.campaign("ta")->snapshot();
  const auto b = srv.campaign("tb")->snapshot();
  EXPECT_GT(a.cache_misses, 0u);
  EXPECT_GT(b.cache_misses, 0u);
  // Every lookup lands on exactly one tenant's ledger: the per-campaign
  // counters partition the cache-wide totals.
  const auto total = srv.cache().stats();
  EXPECT_EQ(total.hits, a.cache_hits + b.cache_hits);
  EXPECT_EQ(total.misses, a.cache_misses + b.cache_misses);
  srv.stop();
}

// ------------------------------------------------------------- stepper ----

TEST(ServerStepper, StepLoopMatchesMonolithicRunExactly) {
  CampaignSpec spec = fastSpec("golden", 77, 42, 10);

  const auto space = server::makeSpaceFor(spec.benchmark);
  const auto bm = server::makeBenchmarkFor(spec.benchmark);
  const auto sim_a = server::makeSimFor(spec, *bm);
  core::CorrelatedMfMoboOptimizer monolithic(*space, *sim_a, spec.opts);
  const core::OptimizeResult golden = monolithic.run();

  const core::OptimizeResult stepped = runIsolated(spec);
  expectSameTrajectory(golden, stepped);
}

TEST(ServerStepper, ResumedFirstStepReportsJournaledRounds) {
  const std::string dir = testing::TempDir() + "/cmmfo_stepper_resume_rounds";
  fs::remove_all(dir);
  fs::create_directories(dir);
  CampaignSpec spec = fastSpec("rr", 5, 33, 8);
  spec.opts.checkpoint_path = dir + "/rr.ckpt.json";

  const auto space = server::makeSpaceFor(spec.benchmark);
  const auto bm = server::makeBenchmarkFor(spec.benchmark);
  const auto sim_a = server::makeSimFor(spec, *bm);
  core::CampaignStepper a(*space, *sim_a, spec.opts);
  EXPECT_EQ(a.step().round, -1);  // init
  EXPECT_EQ(a.step().round, 0);
  EXPECT_EQ(a.step().round, 1);

  // The resumed process's first step restores the journal and must report
  // the last completed round — not the init sentinel, which would make a
  // status snapshot claim 0 rounds of prior progress.
  spec.opts.resume = true;
  const auto sim_b = server::makeSimFor(spec, *bm);
  core::CampaignStepper b(*space, *sim_b, spec.opts);
  const core::RoundOutcome r0 = b.step();
  EXPECT_TRUE(r0.resumed);
  EXPECT_EQ(r0.round, 1);
  EXPECT_EQ(b.step().round, 2);  // and the next round continues from there
  fs::remove_all(dir);
}

// ------------------------------------------------------------ registry ----

TEST(ServerRegistry, RejectsDuplicatesAndListsSorted) {
  server::Registry reg;
  const auto space = server::makeSpaceFor("spmv_crs");
  const auto mk = [&](const std::string& id) {
    return std::make_shared<Campaign>(fastSpec(id, 1, 42), space,
                                      core::SharedRuntime{});
  };
  EXPECT_TRUE(reg.add(mk("b")));
  EXPECT_TRUE(reg.add(mk("a")));
  EXPECT_FALSE(reg.add(mk("a")));  // duplicate id
  EXPECT_EQ(reg.size(), 2u);
  const auto all = reg.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->spec().id, "a");
  EXPECT_EQ(all[1]->spec().id, "b");
  EXPECT_NE(reg.get("a"), nullptr);
  EXPECT_EQ(reg.get("missing"), nullptr);
}

TEST(ServerRegistry, ConcurrentSubmitAndLookupIsSafe) {
  server::Registry reg;
  const auto space = server::makeSpaceFor("spmv_crs");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 8;

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string id =
            "w" + std::to_string(w) + "_" + std::to_string(i);
        ASSERT_TRUE(reg.add(std::make_shared<Campaign>(
            fastSpec(id, 1, 42), space, core::SharedRuntime{})));
      }
    });
  }
  // Readers hammer get/list while writers insert.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        (void)reg.get("w0_0");
        const auto all = reg.list();
        for (std::size_t k = 1; k < all.size(); ++k)
          EXPECT_LT(all[k - 1]->spec().id, all[k]->spec().id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  EXPECT_EQ(reg.list().size(), reg.size());
}

// ---------------------------------------------------------- fair share ----

TEST(ServerFairShare, PicksMinDeficitQueuedAndBreaksTiesTowardFirst) {
  const auto space = server::makeSpaceFor("spmv_crs");
  const auto mk = [&](const std::string& id, double weight) {
    CampaignSpec s = fastSpec(id, 1, 42);
    s.weight = weight;
    return std::make_shared<Campaign>(s, space, core::SharedRuntime{});
  };
  auto a = mk("a", 1.0);
  auto b = mk("b", 1.0);
  auto c = mk("c", 1.0);
  const std::vector<std::shared_ptr<Campaign>> all = {a, b, c};

  // All deficits are 0: the tie breaks toward the first (= smallest id,
  // Registry::list() order).
  EXPECT_EQ(server::FairScheduler::pickNext(all), a);

  // One step charges `a` some tool seconds; the pick moves on.
  ASSERT_TRUE(a->beginStep());
  a->endStep(a->runStep());
  EXPECT_GT(a->deficit(), 0.0);
  EXPECT_EQ(server::FairScheduler::pickNext(all), b);

  // Paused campaigns are not runnable.
  std::string err;
  ASSERT_TRUE(b->requestPause(&err)) << err;
  EXPECT_EQ(server::FairScheduler::pickNext(all), c);

  // Nothing queued -> null.
  ASSERT_TRUE(c->requestPause(&err)) << err;
  EXPECT_EQ(server::FairScheduler::pickNext({b, c}), nullptr);
}

TEST(ServerFairShare, DeficitIsChargedSecondsOverWeight) {
  const auto space = server::makeSpaceFor("spmv_crs");
  CampaignSpec heavy_spec = fastSpec("heavy", 3, 42);
  heavy_spec.weight = 4.0;
  auto heavy =
      std::make_shared<Campaign>(heavy_spec, space, core::SharedRuntime{});
  auto light = std::make_shared<Campaign>(fastSpec("light", 3, 42), space,
                                          core::SharedRuntime{});

  // Same spec, same step: identical charge, 4x-weighted tenant gets a
  // quarter of the deficit — it is entitled to 4x the tool time.
  for (const auto& c : {heavy, light}) {
    ASSERT_TRUE(c->beginStep());
    c->endStep(c->runStep());
  }
  const auto hs = heavy->snapshot();
  const auto ls = light->snapshot();
  ASSERT_GT(hs.charged_seconds, 0.0);
  EXPECT_DOUBLE_EQ(hs.charged_seconds, ls.charged_seconds);
  EXPECT_DOUBLE_EQ(heavy->deficit(), hs.charged_seconds / 4.0);
  EXPECT_DOUBLE_EQ(light->deficit(), ls.charged_seconds);
  EXPECT_EQ(server::FairScheduler::pickNext({light, heavy}), heavy);
}

// ---------------------------------------------------------- farm model ----

TEST(ServerFarm, GreedyPlacementRespectsRoundOrderAndWorkerWidth) {
  server::SharedFarmModel farm(2);
  // 3 jobs of 10s on 2 workers: 10+10 in parallel, then 10 more -> 20.
  EXPECT_DOUBLE_EQ(farm.placeRound("a", {10.0, 10.0, 10.0}), 20.0);
  // Another campaign's round fills the idle worker: starts at 10, ends 15.
  EXPECT_DOUBLE_EQ(farm.placeRound("b", {5.0}), 15.0);
  EXPECT_DOUBLE_EQ(farm.makespan(), 20.0);
  // Campaign a's next round cannot start before its round 1 finished (20)
  // even though a worker frees up at 15.
  EXPECT_DOUBLE_EQ(farm.placeRound("a", {1.0}), 21.0);
  EXPECT_DOUBLE_EQ(farm.makespan(), 21.0);
  // An all-cache-hit round occupies no worker time.
  EXPECT_DOUBLE_EQ(farm.placeRound("c", {}), 0.0);
  EXPECT_DOUBLE_EQ(farm.makespan(), 21.0);
}

// ------------------------------------------------------- line protocol ----

TEST(ServerProtocol, ParseRejectsMalformedRequests) {
  server::Request req;
  std::string err;
  EXPECT_FALSE(server::parseRequest("not json at all", &req, &err));
  EXPECT_FALSE(server::parseRequest("[1,2,3]", &req, &err));
  EXPECT_FALSE(server::parseRequest("{\"op\":5}", &req, &err));
  EXPECT_FALSE(server::parseRequest("{}", &req, &err));
  EXPECT_TRUE(
      server::parseRequest("{\"op\":\"status\",\"id\":\"x\"}", &req, &err));
  EXPECT_EQ(req.op, "status");
  EXPECT_EQ(req.id, "x");
}

TEST(ServerProtocol, StdioSessionRunsACampaignAndRejectsBadInput) {
  ServerOptions opts;
  opts.workers = 4;
  opts.slots = 2;
  OptimizationServer srv(opts);
  srv.start();

  std::stringstream in;
  in << "this is not json\n"
     << "{\"op\":\"definitely_not_an_op\"}\n"
     << "{\"op\":\"submit\",\"id\":\"bad id!\"}\n"
     << "{\"op\":\"status\",\"id\":\"missing\"}\n"
     << "{\"op\":\"subscribe\"}\n"
     << "{\"op\":\"submit\",\"id\":\"p1\",\"benchmark\":\"spmv_crs\","
        "\"seed\":7,\"sim_seed\":11,\"n_iter\":4,\"batch_size\":2,"
        "\"mc_samples\":16,\"max_candidates\":60,\"refit_every\":5,"
        "\"mle_restarts\":0,\"max_mle_iters\":25}\n"
     << "{\"op\":\"drain\"}\n"
     << "{\"op\":\"status\",\"id\":\"p1\"}\n"
     << "{\"op\":\"shutdown\"}\n";
  std::stringstream out;
  srv.serveStdio(in, out);
  srv.stop();

  int parse_failures = 0, errors = 0, rounds = 0, done_rounds = 0;
  bool saw_done_state = false, saw_final_status = false;
  std::string line;
  while (std::getline(out, line)) {
    util::Json j;
    std::string jerr;
    if (!util::parseJson(line, &j, &jerr)) {
      ++parse_failures;
      continue;
    }
    if (const util::Json* ok = j.find("ok");
        ok != nullptr && ok->kind == util::Json::kBool && !ok->b)
      ++errors;
    if (j.strOr("event", "") == "round") {
      ++rounds;
      EXPECT_EQ(j.strOr("id", ""), "p1");
      if (const util::Json* d = j.find("done");
          d != nullptr && d->kind == util::Json::kBool && d->b)
        ++done_rounds;
    }
    if (j.strOr("event", "") == "state" && j.strOr("state", "") == "done")
      saw_done_state = true;
    if (const util::Json* c = j.find("campaign");
        c != nullptr && c->strOr("state", "") == "done")
      saw_final_status = true;
  }
  EXPECT_EQ(parse_failures, 0) << "every output line must be valid JSON";
  // garbage, unknown op, invalid id, unknown campaign status.
  EXPECT_EQ(errors, 4);
  // init round + ceil(4/2) BO rounds, all streamed to the subscriber.
  EXPECT_GE(rounds, 3);
  EXPECT_EQ(done_rounds, 1);
  EXPECT_TRUE(saw_done_state);
  EXPECT_TRUE(saw_final_status);
}

TEST(ServerProtocol, PauseHoldsProgressAndResumeFinishes) {
  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 1;
  OptimizationServer srv(opts);
  srv.start();

  std::string err;
  ASSERT_TRUE(srv.submit(fastSpec("pc", 5, 21, 6), &err)) << err;
  ASSERT_TRUE(srv.pause("pc", &err)) << err;
  srv.drain();  // paused campaigns leave the server drained
  const auto paused = srv.campaign("pc")->snapshot();
  EXPECT_EQ(paused.state, CampaignState::kPaused);

  ASSERT_TRUE(srv.resumeCampaign("pc", &err)) << err;
  srv.drain();
  const auto done = srv.campaign("pc")->snapshot();
  EXPECT_EQ(done.state, CampaignState::kDone);
  EXPECT_EQ(done.proposals, 6);
  srv.stop();

  // The multiplexed trajectory equals the isolated golden.
  const auto result = srv.campaign("pc")->result();
  ASSERT_TRUE(result.has_value());
  expectSameTrajectory(runIsolated(fastSpec("pc", 5, 21, 6)), *result);
}

// --------------------------------------------------------- telemetry ----

// Tests flipping the process-wide observability flags restore them on exit
// (pass or fail) so co-resident tests never inherit a live registry.
struct ObsReset {
  ~ObsReset() { obs::global().reset(); }
};

TEST(ServerProtocol, MetricsVerbExposesSloSeries) {
  ObsReset reset_on_exit;
  obs::metrics().setEnabled(true);

  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 2;
  OptimizationServer srv(opts);
  srv.start();
  std::string err;
  ASSERT_TRUE(srv.submit(fastSpec("mv", 7, 31, 4), &err)) << err;
  srv.drain();

  std::stringstream in, out;
  in << "{\"op\":\"metrics\"}\n"
     << "{\"op\":\"shutdown\"}\n";
  srv.serveStdio(in, out);
  srv.stop();

  // The first output line answers the metrics verb.
  std::string line;
  ASSERT_TRUE(std::getline(out, line));
  util::Json j;
  ASSERT_TRUE(util::parseJson(line, &j)) << line;
  const util::Json* ok = j.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->b) << line;
  const util::Json* enabled = j.find("enabled");
  ASSERT_NE(enabled, nullptr);
  EXPECT_TRUE(enabled->b);
  EXPECT_NE(j.find("trace_dropped"), nullptr);

  const util::Json* arr = j.find("metrics");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->kind, util::Json::kArr);
  ASSERT_FALSE(arr->arr.empty());

  bool saw_step = false, saw_labeled = false, saw_fanout = false;
  for (const util::Json& p : arr->arr) {
    const std::string name = p.strOr("name", "");
    if (name == "slo.step_seconds") {
      saw_step = true;
      EXPECT_EQ(p.strOr("kind", ""), "histogram");
      // init round + ceil(4/2) BO rounds drove at least 3 steps.
      EXPECT_GE(p.numOr("count", 0.0), 3.0);
      const util::Json* bounds = p.find("bounds");
      const util::Json* buckets = p.find("buckets");
      ASSERT_NE(bounds, nullptr);
      ASSERT_NE(buckets, nullptr);
      EXPECT_EQ(buckets->arr.size(), bounds->arr.size() + 1);
    }
    // The per-campaign series carries the flat label suffix the
    // Prometheus renderer turns into {campaign="mv"}.
    if (name == "slo.step_seconds#campaign=mv") saw_labeled = true;
    // Every single-flight leader finish observes its fan-out.
    if (name == "slo.coalesce_fanout") {
      saw_fanout = true;
      EXPECT_EQ(p.strOr("kind", ""), "histogram");
      EXPECT_GT(p.numOr("count", 0.0), 0.0);
    }
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_labeled);
  EXPECT_TRUE(saw_fanout);
}

// A supervised restart resumes ONE campaign from its journal. The metrics
// registry is process-wide, so that restore must not rewind it: co-tenants'
// series (and the failed step's own observation) have moved on since the
// journal was written. The seeded chaos coin faults campaign "ma" exactly
// once, on its third step attempt, after its journal holds two rounds.
TEST(ServerDaemon, SupervisedRestartNeverRewindsSharedMetrics) {
  ObsReset reset_on_exit;
  obs::metrics().setEnabled(true);
  const std::string dir = testing::TempDir() + "/cmmfo_server_metrics_rs";
  fs::remove_all(dir);

  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 2;
  opts.journal_dir = dir;
  opts.max_restarts = 4;
  opts.restart_backoff_ms = 1;
  opts.chaos.seed = 178;
  opts.chaos.step_fault_prob = 0.25;
  opts.chaos.only_id = "ma";
  OptimizationServer srv(opts);

  const auto stepCount = [] {
    for (const obs::MetricPoint& p : obs::metrics().snapshot())
      if (p.name == "slo.step_seconds") return p.count;
    return std::uint64_t{0};
  };
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      const std::uint64_t now = stepCount();
      EXPECT_GE(now, last);
      last = now;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  srv.start();
  std::string err;
  ASSERT_TRUE(srv.submit(fastSpec("ma", 7, 41, 6), &err)) << err;
  ASSERT_TRUE(srv.submit(fastSpec("mb", 9, 43, 6), &err)) << err;
  srv.drain();
  stop.store(true);
  poller.join();

  EXPECT_EQ(srv.campaign("ma")->snapshot().state, CampaignState::kDone);
  EXPECT_EQ(srv.campaign("ma")->snapshot().restarts, 1);
  EXPECT_EQ(srv.campaign("mb")->snapshot().state, CampaignState::kDone);
  // Every executed step was observed once (the failed attempt too), and
  // nothing was rolled back.
  EXPECT_GE(stepCount(), srv.stats().steps_executed);
  srv.stop();
  fs::remove_all(dir);
}

// Follows one campaign's trace through a coalesced job shared with a
// second campaign: campaign A's job leads the single-flight on (config,
// fidelity); campaign B's scheduler — a co-tenant in the same cache
// namespace — joins mid-flight and must record a "coalesced" job span in
// ITS OWN trace that links to A's leader span. The leader is gated on
// flightWaiters(), so the interleaving is deterministic, not timing luck.
TEST(ServerTrace, CoalescedJobLinksFollowerSpanToLeaderAcrossCampaigns) {
  ObsReset reset_on_exit;
  obs::tracer().setEnabled(true);

  const CampaignSpec spec_a = fastSpec("trace_a", 7, 42);
  const CampaignSpec spec_b = fastSpec("trace_b", 9, 42);  // co-tenant
  const std::uint64_t ns = server::cacheNamespaceOf(spec_a);
  ASSERT_EQ(ns, server::cacheNamespaceOf(spec_b));
  const std::uint64_t root_a = server::cacheLedgerOf(spec_a);
  const std::uint64_t root_b = server::cacheLedgerOf(spec_b);
  ASSERT_NE(root_a, root_b);

  const auto space = server::makeSpaceFor(spec_a.benchmark);
  const auto bm = server::makeBenchmarkFor(spec_a.benchmark);
  const auto sim_a = server::makeSimFor(spec_a, *bm);
  const auto sim_b = server::makeSimFor(spec_b, *bm);
  runtime::EvalCache cache;
  runtime::ToolScheduler sched_b(*space, *sim_b, cache, 2, {}, ns, root_b);

  constexpr std::size_t kConfig = 7;
  const auto fidelity = sim::Fidelity::kSyn;

  // Campaign A's driver: root context, a leader job span, and the
  // single-flight registration the scheduler performs for a leader —
  // carrying the span's causal identity into the cache.
  obs::ContextGuard root_guard(&obs::tracer(),
                               obs::TraceContext{root_a, root_a});
  auto leader_span =
      std::make_unique<obs::Span>(&obs::tracer(), "job", "scheduler");
  const std::uint64_t leader_span_id = leader_span->spanId();
  ASSERT_EQ(leader_span->traceId(), root_a);
  std::array<sim::Report, sim::kNumFidelities> stages{};
  ASSERT_EQ(cache.joinFlight(kConfig, fidelity, ns, root_a, &stages,
                             {root_a, leader_span_id}),
            runtime::EvalCache::FlightJoin::kLeader);

  // Campaign B: a real scheduler round submitted under B's root context.
  std::vector<runtime::EvalResult> results_b;
  std::thread campaign_b([&] {
    obs::ContextGuard guard(&obs::tracer(),
                            obs::TraceContext{root_b, root_b});
    results_b = sched_b.runBatch({{kConfig, fidelity}});
  });

  // Release the leader only after B parked inside the flight wait.
  while (cache.flightWaiters(kConfig, ns) < 1) std::this_thread::yield();
  for (int s = 0; s <= static_cast<int>(fidelity); ++s)
    stages[s] =
        sim_a->run(space->config(kConfig), static_cast<sim::Fidelity>(s));
  cache.storeFlow(kConfig, fidelity, stages, ns);
  leader_span->outcome("ok");
  leader_span.reset();  // records A's job span
  EXPECT_EQ(cache.finishFlight(kConfig, ns), 1);
  campaign_b.join();

  ASSERT_EQ(results_b.size(), 1u);
  EXPECT_TRUE(results_b[0].coalesced);
  EXPECT_DOUBLE_EQ(results_b[0].charged_seconds, 0.0);

  // One trace per campaign; B's job span carries the cross-trace link.
  const auto events = obs::tracer().events();
  const obs::TraceEvent* leader = nullptr;
  const obs::TraceEvent* follower = nullptr;
  const obs::TraceEvent* batch_b = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "run_batch" && e.trace_id == root_b) batch_b = &e;
    if (e.name != "job") continue;
    if (e.trace_id == root_a) leader = &e;
    if (e.trace_id == root_b) follower = &e;
  }
  ASSERT_NE(leader, nullptr);
  ASSERT_NE(follower, nullptr);
  ASSERT_NE(batch_b, nullptr);
  EXPECT_EQ(leader->span_id, leader_span_id);
  EXPECT_EQ(leader->parent_span_id, root_a);
  // Full causal chain in B's trace: job -> run_batch -> campaign root.
  EXPECT_EQ(follower->parent_span_id, batch_b->span_id);
  EXPECT_EQ(batch_b->parent_span_id, root_b);
  EXPECT_EQ(follower->outcome, "coalesced");
  EXPECT_EQ(follower->id, static_cast<std::int64_t>(kConfig));
  EXPECT_EQ(follower->link_trace_id, root_a);
  EXPECT_EQ(follower->link_span_id, leader_span_id);
  EXPECT_NE(follower->span_id, leader->span_id);
}

// ----------------------------------------------------- kill and resume ----

TEST(ServerDaemon, KillAndResumeThreeCampaignsIsTrajectoryIdentical) {
  const std::string dir = testing::TempDir() + "/cmmfo_server_journal_kr";
  fs::remove_all(dir);

  // Distinct sim seeds -> distinct cache namespaces -> each campaign's
  // cache economics match its isolated golden exactly (no cross-tenant
  // hits to perturb tool_seconds).
  const std::vector<CampaignSpec> specs = {fastSpec("k0", 7, 101, 8),
                                           fastSpec("k1", 8, 102, 8),
                                           fastSpec("k2", 9, 103, 8)};
  std::vector<core::OptimizeResult> golden;
  golden.reserve(specs.size());
  for (const auto& s : specs) golden.push_back(runIsolated(s));

  ServerOptions opts;
  opts.workers = 4;
  opts.slots = 2;
  opts.journal_dir = dir;

  // First daemon: submit all three, let every campaign get at least one BO
  // round into its journal, then kill it mid-flight.
  OptimizationServer first(opts);
  first.start();
  std::string err;
  for (const auto& s : specs) ASSERT_TRUE(first.submit(s, &err)) << err;
  const auto all_started = [&] {
    for (const auto& s : specs)
      if (first.campaign(s.id)->snapshot().rounds < 1) return false;
    return true;
  };
  while (!all_started())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  first.stop();  // finishes in-flight steps, leaves the rest checkpointed

  // Second daemon resumes the journal and runs everything to completion.
  ServerOptions ropts = opts;
  ropts.resume = true;
  OptimizationServer second(ropts);
  second.start();
  second.drain();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& id = specs[i].id;
    // A campaign that happened to finish before the kill is journaled final
    // and not re-submitted; its result lives in the first daemon.
    auto campaign = second.campaign(id);
    if (campaign == nullptr) campaign = first.campaign(id);
    ASSERT_NE(campaign, nullptr) << id;
    EXPECT_EQ(campaign->snapshot().state, CampaignState::kDone) << id;
    const auto result = campaign->result();
    ASSERT_TRUE(result.has_value()) << id;
    expectSameTrajectory(golden[i], *result);
  }
  second.stop();
  fs::remove_all(dir);
}

// A spec that cannot be written is refused before the campaign exists:
// accepting it would leave a campaign that no later --resume can rebuild.
TEST(ServerDaemon, UnwritableSpecRefusesTheSubmit) {
  const std::string dir = testing::TempDir() + "/cmmfo_server_spec_unwritable";
  fs::remove_all(dir);
  ServerOptions opts;
  opts.workers = 1;
  opts.slots = 1;
  opts.journal_dir = dir;
  OptimizationServer srv(opts);
  // A directory where the spec's temp file goes: the temp cannot be opened.
  fs::create_directories(dir + "/a.spec.json.tmp");
  srv.start();
  std::string err;
  EXPECT_FALSE(srv.submit(fastSpec("a", 7, 101), &err));
  EXPECT_NE(err.find("cannot write spec file"), std::string::npos) << err;
  EXPECT_EQ(srv.campaign("a"), nullptr);
  EXPECT_FALSE(fs::exists(dir + "/a.spec.json"));

  // With the obstruction gone the same submit is accepted and durable.
  fs::remove_all(dir + "/a.spec.json.tmp");
  ASSERT_TRUE(srv.submit(fastSpec("a", 7, 101), &err)) << err;
  EXPECT_TRUE(fs::is_regular_file(dir + "/a.spec.json"));
  srv.drain();
  srv.stop();
  fs::remove_all(dir);
}

// Losing the journal directory mid-run fails only that campaign. Its final
// marker cannot be written either; the state event says so, and the daemon
// keeps serving instead of dying on an exception out of a driver thread.
TEST(ServerDaemon, LostJournalDirFailsTheCampaignNotTheDaemon) {
  const std::string dir = testing::TempDir() + "/cmmfo_server_journal_lost";
  fs::remove_all(dir);
  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 1;
  opts.journal_dir = dir;
  opts.max_restarts = 0;
  OptimizationServer srv(opts);
  std::mutex mu;
  std::vector<std::string> events;
  const int token = srv.subscribe([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(line);
  });
  srv.start();
  std::string err;
  ASSERT_TRUE(srv.submit(fastSpec("a", 7, 101, 120), &err)) << err;
  while (srv.campaign("a")->snapshot().rounds < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The running campaign may recreate a file between listing and rmdir.
  std::error_code ec;
  while (fs::exists(dir)) fs::remove_all(dir, ec);
  srv.drain();

  EXPECT_EQ(srv.campaign("a")->snapshot().state, CampaignState::kFailed);
  EXPECT_EQ(srv.list().size(), 1u);  // still serving
  // The campaign's failure record had nowhere to go: the loss is counted,
  // and the stats reply carries the count.
  const std::size_t dropped = srv.stats().supervision.diag_dropped;
  EXPECT_GE(dropped, 1u);
  util::Json stats;
  ASSERT_TRUE(util::parseJson(
      srv.handleLine("{\"op\":\"stats\"}", nullptr, nullptr, nullptr), &stats));
  const util::Json* sup = stats.find("supervision");
  ASSERT_NE(sup, nullptr);
  EXPECT_EQ(sup->numOr("diag_dropped", -1.0), static_cast<double>(dropped));
  srv.stop();
  srv.unsubscribe(token);
  bool reported = false;
  std::lock_guard<std::mutex> lock(mu);
  for (const std::string& line : events) {
    util::Json j;
    ASSERT_TRUE(util::parseJson(line, &j)) << line;
    if (j.strOr("event", "") == "state" && j.strOr("state", "") == "failed")
      reported |= j.strOr("error", "").find("cannot write final marker") !=
                  std::string::npos;
  }
  EXPECT_TRUE(reported);
}

// ------------------------------------------------------------------ TCP ----

std::string readLine(int fd) {
  std::string line;
  char c;
  while (read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return line;
}

int dialLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

void sendLine(int fd, const std::string& s) {
  const std::string msg = s + "\n";
  ASSERT_EQ(write(fd, msg.data(), msg.size()),
            static_cast<ssize_t>(msg.size()));
}

TEST(ServerTcp, SocketRoundTripServesRequestsUntilShutdown) {
  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 1;
  OptimizationServer srv(opts);
  srv.start();
  const int port = srv.listenTcp(0);
  ASSERT_GT(port, 0);

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const auto send_line = [&](const std::string& s) {
    const std::string msg = s + "\n";
    ASSERT_EQ(write(fd, msg.data(), msg.size()),
              static_cast<ssize_t>(msg.size()));
  };

  send_line("{\"op\":\"list\"}");
  util::Json j;
  ASSERT_TRUE(util::parseJson(readLine(fd), &j));
  const util::Json* ok = j.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->b);

  send_line("{\"op\":\"no_such_op\"}");
  ASSERT_TRUE(util::parseJson(readLine(fd), &j));
  ok = j.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->b);

  send_line("{\"op\":\"shutdown\"}");
  ASSERT_TRUE(util::parseJson(readLine(fd), &j));
  close(fd);
  srv.waitUntilStopped();
  srv.stop();
}

TEST(ServerTcp, StopUnblocksIdleConnections) {
  // Regression: a reader parked in ::read on an idle-but-open connection
  // must be woken by stop()'s socket shutdown, or shutdown joins forever.
  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 1;
  OptimizationServer srv(opts);
  srv.start();
  const int port = srv.listenTcp(0);
  ASSERT_GT(port, 0);

  const int active = dialLoopback(port);
  const int idle = dialLoopback(port);
  ASSERT_GE(active, 0);
  ASSERT_GE(idle, 0);
  // One round-trip per connection, so both reader threads are provably up
  // and parked in ::read afterwards.
  util::Json j;
  sendLine(active, "{\"op\":\"list\"}");
  ASSERT_TRUE(util::parseJson(readLine(active), &j));
  sendLine(idle, "{\"op\":\"list\"}");
  ASSERT_TRUE(util::parseJson(readLine(idle), &j));

  // Client-initiated shutdown: the connection thread only INITIATES the
  // stop; the joining happens here on the test thread (the daemon's
  // waitUntilStopped/stop sequence), never on a connection thread.
  sendLine(active, "{\"op\":\"shutdown\"}");
  ASSERT_TRUE(util::parseJson(readLine(active), &j));
  srv.waitUntilStopped();
  srv.stop();  // must not hang on the idle connection

  // The server hung up on the idle client.
  char c;
  EXPECT_LE(read(idle, &c, 1), 0);
  close(active);
  close(idle);
  // Scope exit re-runs stop() via the destructor: blocking + idempotent.
}

TEST(ServerTcp, ConcurrentStopIsBlockingAndIdempotent) {
  // Regression: a second stop() must BLOCK until the first finishes, so
  // destroying the server right after any stop() returns is safe.
  auto srv = std::make_unique<OptimizationServer>(ServerOptions{});
  srv->start();
  ASSERT_GT(srv->listenTcp(0), 0);
  std::string err;
  ASSERT_TRUE(srv->submit(fastSpec("cs", 3, 17, 4), &err)) << err;
  std::thread t1([&] { srv->stop(); });
  std::thread t2([&] { srv->stop(); });
  t1.join();
  t2.join();
  srv.reset();  // both stops returned -> teardown must be safe
}

}  // namespace
}  // namespace cmmfo
