// Multi-campaign server throughput harness.
//
// The same 8-campaign workload runs two ways at EQUAL worker count W:
//  - sequential baseline: each campaign alone on a W-wide farm (its own
//    cache, its own pool), one after the other;
//  - concurrent: all 8 submitted to one OptimizationServer multiplexing
//    them over a shared W-wide pool and a shared namespaced eval cache.
//
// The headline metric is SIMULATED farm time — this box may have a single
// core, so real wall-clock mostly measures the model math, not the tool
// farm the server is scheduling. Simulated time is the same accounting the
// repo's batch-scaling bench reports: per-round greedy list scheduling,
// summed per campaign in isolation vs packed onto the shared farm by
// SharedFarmModel. Real host seconds are reported alongside.
//
// The workload is 4 distinct (seed) specs x 2 replicas on one benchmark:
// replicas share a cache namespace, so the second submission of each pair
// rides the first one's artifacts — the shared-cache hit-rate uplift a
// multi-tenant deployment sees on re-runs and warm restarts.
//
// With CMMFO_PERF_GATE set, exits non-zero unless the concurrent server
// clears >= 2x aggregate campaigns/sec over the sequential baseline.
// --out PATH additionally writes the numbers as JSON.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign_stepper.h"
#include "exp/harness.h"
#include "scenario/generator.h"
#include "server/server.h"
#include "util/json.h"

using namespace cmmfo;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  const bool fast = exp::fastModeFromEnv();
  const int kWorkers = 8;
  const int kSlots = 4;
  const int kDistinct = fast ? 2 : 4;
  const int kReplicas = 2;
  const int n_campaigns = kDistinct * kReplicas;

  // One spec per campaign; replica r of seed s differs only in id.
  std::vector<server::CampaignSpec> specs;
  for (int s = 0; s < kDistinct; ++s) {
    for (int r = 0; r < kReplicas; ++r) {
      server::CampaignSpec spec;
      spec.id = "c" + std::to_string(s) + "_r" + std::to_string(r);
      spec.benchmark = "spmv_crs";
      spec.opts.seed = 100 + static_cast<std::uint64_t>(s);
      spec.opts.n_iter = fast ? 6 : 10;
      spec.opts.batch_size = 2;
      spec.opts.mc_samples = 16;
      spec.opts.max_candidates = 60;
      spec.opts.refit_every = 5;
      spec.opts.surrogate.mtgp.mle_restarts = 0;
      spec.opts.surrogate.gp.mle_restarts = 0;
      spec.opts.surrogate.mtgp.max_mle_iters = 25;
      spec.opts.surrogate.gp.max_mle_iters = 25;
      specs.push_back(spec);
    }
  }

  std::printf("server_throughput: %d campaigns (%d distinct x %d replicas), "
              "W=%d workers, %d slots\n\n",
              n_campaigns, kDistinct, kReplicas, kWorkers, kSlots);

  // ---- Sequential baseline: isolated campaigns, back to back. ----
  double seq_sim_seconds = 0.0;
  std::uint64_t seq_hits = 0, seq_misses = 0;
  const double seq_t0 = nowSeconds();
  for (const server::CampaignSpec& spec : specs) {
    const std::shared_ptr<const hls::DesignSpace> space =
        server::makeSpaceFor(spec.benchmark);
    const bench_suite::Benchmark bm =
        scenario::resolveBenchmark(spec.benchmark);
    const std::unique_ptr<sim::FpgaToolSim> sim =
        bench_suite::makeToolSim(bm, spec.sim_seed);
    core::OptimizerOptions o = spec.opts;
    o.n_workers = kWorkers;  // equal farm width, private to this campaign
    core::CampaignStepper stepper(*space, *sim, o);
    while (!stepper.done()) stepper.step();
    const core::OptimizeResult res = stepper.finish();
    seq_sim_seconds += res.wall_seconds;
    seq_hits += static_cast<std::uint64_t>(res.cache_hits);
    seq_misses += static_cast<std::uint64_t>(res.tool_runs);
  }
  const double seq_real_seconds = nowSeconds() - seq_t0;

  // ---- Concurrent: one server, shared pool + cache. ----
  server::ServerOptions sopts;
  sopts.workers = kWorkers;
  sopts.slots = kSlots;
  server::OptimizationServer srv(sopts);

  std::vector<double> step_seconds;
  std::mutex steps_mu;
  srv.subscribe([&](const std::string& line) {
    // Cheap extraction; the event format is produced by this repo.
    const std::size_t k = line.find("\"step_seconds\":");
    if (k == std::string::npos) return;
    std::lock_guard<std::mutex> lock(steps_mu);
    step_seconds.push_back(std::strtod(line.c_str() + k + 15, nullptr));
  });

  srv.start();
  const double conc_t0 = nowSeconds();
  for (const server::CampaignSpec& spec : specs) {
    std::string err;
    if (!srv.submit(spec, &err)) {
      std::fprintf(stderr, "submit %s failed: %s\n", spec.id.c_str(),
                   err.c_str());
      return 1;
    }
  }
  srv.drain();
  const double conc_real_seconds = nowSeconds() - conc_t0;
  const server::ServerStats stats = srv.stats();
  const double conc_sim_seconds = stats.farm_makespan_seconds;
  srv.stop();

  const double sim_speedup =
      conc_sim_seconds > 1e-12 ? seq_sim_seconds / conc_sim_seconds : 0.0;
  const double real_speedup =
      conc_real_seconds > 1e-12 ? seq_real_seconds / conc_real_seconds : 0.0;
  const double seq_cps =
      seq_sim_seconds > 1e-12 ? n_campaigns / seq_sim_seconds : 0.0;
  const double conc_cps =
      conc_sim_seconds > 1e-12 ? n_campaigns / conc_sim_seconds : 0.0;
  const double seq_lookups = static_cast<double>(seq_hits + seq_misses);
  const double seq_hit_rate =
      seq_lookups > 0.0 ? static_cast<double>(seq_hits) / seq_lookups : 0.0;
  const double conc_lookups =
      static_cast<double>(stats.cache.hits + stats.cache.misses);
  const double conc_hit_rate =
      conc_lookups > 0.0 ? static_cast<double>(stats.cache.hits) / conc_lookups
                         : 0.0;
  const double p50 = percentile(step_seconds, 0.50);
  const double p95 = percentile(step_seconds, 0.95);
  const double p99 = percentile(step_seconds, 0.99);

  std::printf("%-34s %14s %14s\n", "", "sequential", "concurrent");
  std::printf("%-34s %14.1f %14.1f\n", "simulated farm seconds",
              seq_sim_seconds, conc_sim_seconds);
  std::printf("%-34s %14.2f %14.2f\n", "real host seconds", seq_real_seconds,
              conc_real_seconds);
  std::printf("%-34s %14.4f %14.4f\n", "campaigns/sim-sec", seq_cps,
              conc_cps);
  std::printf("%-34s %14.3f %14.3f\n", "cache hit rate", seq_hit_rate,
              conc_hit_rate);
  std::printf("\nsimulated speedup (>= 2x required): %.2fx\n", sim_speedup);
  std::printf("real-host speedup on this machine:  %.2fx\n", real_speedup);
  std::printf("per-step real latency p50/p95/p99:  %.1f / %.1f / %.1f ms "
              "(%zu steps)\n",
              p50 * 1e3, p95 * 1e3, p99 * 1e3, step_seconds.size());
  std::printf("shared-cache hit-rate uplift:       %+.1f points\n",
              100.0 * (conc_hit_rate - seq_hit_rate));

  if (!out_path.empty()) {
    std::string j = "{\"campaigns\":";
    util::putInt(j, n_campaigns);
    j += ",\"workers\":";
    util::putInt(j, kWorkers);
    j += ",\"slots\":";
    util::putInt(j, kSlots);
    j += ",\"seq_sim_seconds\":";
    util::putDouble(j, seq_sim_seconds);
    j += ",\"conc_sim_seconds\":";
    util::putDouble(j, conc_sim_seconds);
    j += ",\"seq_real_seconds\":";
    util::putDouble(j, seq_real_seconds);
    j += ",\"conc_real_seconds\":";
    util::putDouble(j, conc_real_seconds);
    j += ",\"sim_speedup\":";
    util::putDouble(j, sim_speedup);
    j += ",\"real_speedup\":";
    util::putDouble(j, real_speedup);
    j += ",\"campaigns_per_sim_second_sequential\":";
    util::putDouble(j, seq_cps);
    j += ",\"campaigns_per_sim_second_concurrent\":";
    util::putDouble(j, conc_cps);
    j += ",\"cache_hit_rate_sequential\":";
    util::putDouble(j, seq_hit_rate);
    j += ",\"cache_hit_rate_concurrent\":";
    util::putDouble(j, conc_hit_rate);
    j += ",\"step_latency_p50_ms\":";
    util::putDouble(j, p50 * 1e3);
    j += ",\"step_latency_p95_ms\":";
    util::putDouble(j, p95 * 1e3);
    j += ",\"step_latency_p99_ms\":";
    util::putDouble(j, p99 * 1e3);
    j += ",\"steps\":";
    util::putInt(j, static_cast<long long>(step_seconds.size()));
    j += "}\n";
    util::writeTextTo(out_path, j);
  }

  if (const char* gate = std::getenv("CMMFO_PERF_GATE");
      gate != nullptr && gate[0] != '\0' &&
      !(gate[0] == '0' && gate[1] == '\0')) {
    const bool pass = sim_speedup >= 2.0;
    std::printf("\nperf-gate: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
  }
  return 0;
}
