// Observability overhead bench: proves the tracing + metrics layer is
// cheap enough to leave on (<2% wall-clock by default) and — the part that
// actually matters — that it is ALGORITHMICALLY invisible: the optimizer's
// trajectory with full instrumentation enabled is bit-for-bit the
// trajectory with it disabled.
//
// Three arms, each gated independently:
//   sync    the seed-77 SpmvCrs golden run (Algorithm 2, sequential)
//   async   the same spec through the asynchronous pipeline (W=2): covers
//           the submit-closure context capture and queue-wait timing
//   server  two campaigns multiplexed on one OptimizationServer (shared
//           pool, shared cache, per-campaign SLO series): covers the
//           driver-loop step histograms and the campaign trace roots
//
// Method per arm: alternate disabled/enabled runs (interleaved so CPU
// frequency drift hits both sub-arms equally), compare the median
// wall-clock, and fingerprint every run's (config, fidelity) sequence plus
// charged tool-seconds.
//
// Knobs:
//   CMMFO_OBS_BUDGET    relative overhead budget (default 0.02)
//   CMMFO_REPEATS       runs per arm (default 5, CMMFO_FAST caps to 3)
//   CMMFO_OBS_TRACE     path to dump a sample trace JSONL (optional)
//   CMMFO_OBS_METRICS   path to dump a sample metrics CSV (optional)
//
// Exit status 1 when any arm exceeds the overhead budget or any enabled
// run's trajectory diverges from its disabled baseline — CI fails on
// either.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.h"
#include "core/optimizer.h"
#include "exp/harness.h"
#include "obs/obs.h"
#include "server/server.h"
#include "util/json.h"

using namespace cmmfo;

namespace {

core::OptimizerOptions goldenOpts() {
  core::OptimizerOptions o;
  o.n_iter = 10;
  o.mc_samples = 16;
  o.max_candidates = 60;
  o.refit_every = 5;
  o.surrogate.mtgp.mle_restarts = 0;
  o.surrogate.mtgp.max_mle_iters = 25;
  o.surrogate.gp.mle_restarts = 0;
  o.surrogate.gp.max_mle_iters = 25;
  o.seed = 77;
  return o;
}

enum class Arm { kSync, kAsync, kServer };

const char* armName(Arm a) {
  switch (a) {
    case Arm::kSync: return "sync";
    case Arm::kAsync: return "async";
    case Arm::kServer: return "server";
  }
  return "?";
}

struct RunOutcome {
  double seconds = 0.0;           // host wall-clock of run()
  double tool_seconds = 0.0;      // simulated charged time (determinism key)
  std::vector<std::pair<std::size_t, int>> picks;
};

RunOutcome runDirect(bool async) {
  const auto bm = bench_suite::makeSpmvCrs();
  const auto space = hls::DesignSpace::buildPruned(bm.kernel, bm.spec);
  sim::FpgaToolSim sim(bm.kernel, sim::DeviceModel::virtex7Vc707(),
                       bm.sim_params, 42);
  core::OptimizerOptions opts = goldenOpts();
  if (async) {
    opts.async = true;
    opts.n_workers = 2;
  }
  core::CorrelatedMfMoboOptimizer opt(space, sim, opts);

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = opt.run();
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.tool_seconds = res.tool_seconds;
  for (const auto& e : res.cs)
    out.picks.emplace_back(e.config, static_cast<int>(e.fidelity));
  return out;
}

server::CampaignSpec serverSpec(const std::string& id, std::uint64_t seed,
                                std::uint64_t sim_seed) {
  server::CampaignSpec spec;
  spec.id = id;
  spec.benchmark = "spmv_crs";
  // Distinct sim_seeds put the two campaigns in DIFFERENT cache
  // namespaces: no cross-campaign coalescing, so each trajectory's charged
  // seconds stay deterministic under thread interleaving.
  spec.sim_seed = sim_seed;
  spec.opts = goldenOpts();
  spec.opts.seed = seed;
  spec.opts.n_iter = 6;
  spec.opts.batch_size = 2;
  return spec;
}

RunOutcome runServer() {
  server::ServerOptions so;
  so.workers = 2;
  so.slots = 2;
  server::OptimizationServer srv(so);

  const auto t0 = std::chrono::steady_clock::now();
  srv.start();
  std::string err;
  if (!srv.submit(serverSpec("obs_a", 77, 42), &err) ||
      !srv.submit(serverSpec("obs_b", 78, 43), &err)) {
    std::fprintf(stderr, "obs_overhead: submit failed: %s\n", err.c_str());
    std::exit(1);
  }
  srv.drain();
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  // Fingerprint both campaigns in id order; the {SIZE_MAX, -1} sentinel
  // keeps the concatenated sequences unambiguous.
  for (const char* id : {"obs_a", "obs_b"}) {
    const auto c = srv.campaign(id);
    const auto res = c != nullptr ? c->result() : std::nullopt;
    if (!res.has_value()) {
      std::fprintf(stderr, "obs_overhead: campaign %s has no result\n", id);
      std::exit(1);
    }
    out.tool_seconds += res->tool_seconds;
    out.picks.emplace_back(static_cast<std::size_t>(-1), -1);
    for (const auto& e : res->cs)
      out.picks.emplace_back(e.config, static_cast<int>(e.fidelity));
  }
  srv.stop();
  return out;
}

RunOutcome runOnce(Arm arm, bool instrumented) {
  obs::tracer().clear();
  obs::metrics().clear();
  obs::tracer().setEnabled(instrumented);
  obs::metrics().setEnabled(instrumented);
  switch (arm) {
    case Arm::kSync: return runDirect(false);
    case Arm::kAsync: return runDirect(true);
    case Arm::kServer: return runServer();
  }
  return {};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One interleaved off/on comparison for one arm. Returns false on an
/// exceeded budget or a perturbed trajectory.
bool runArm(Arm arm, int repeats, double budget, double abs_floor) {
  std::printf("---- arm: %s ----\n", armName(arm));
  // Warm-up run (untimed) so allocator/page-cache state is equal for both.
  const RunOutcome baseline = runOnce(arm, false);

  std::vector<double> t_off, t_on;
  bool identical = true;
  for (int i = 0; i < repeats; ++i) {  // interleave the sub-arms
    const RunOutcome off = runOnce(arm, false);
    const RunOutcome on = runOnce(arm, true);
    t_off.push_back(off.seconds);
    t_on.push_back(on.seconds);
    if (off.picks != baseline.picks || on.picks != baseline.picks ||
        off.tool_seconds != baseline.tool_seconds ||
        on.tool_seconds != baseline.tool_seconds) {
      identical = false;
      std::printf("repeat %d: TRAJECTORY DIVERGED (off %zu picks %.17g s, "
                  "on %zu picks %.17g s)\n",
                  i, off.picks.size(), off.tool_seconds, on.picks.size(),
                  on.tool_seconds);
    }
    std::printf("repeat %d: off %.3f s   on %.3f s   (%zu trace events, "
                "%zu metric series)\n",
                i, off.seconds, on.seconds, obs::tracer().eventCount(),
                obs::metrics().snapshot().size());
  }

  const double m_off = median(t_off);
  const double m_on = median(t_on);
  const double overhead = m_off > 0.0 ? (m_on - m_off) / m_off : 0.0;
  std::printf("median off %.3f s   median on %.3f s   overhead %+.2f%%\n",
              m_off, m_on, 100.0 * overhead);
  std::printf("trajectories identical across arms: %s\n\n",
              identical ? "yes" : "NO");

  bool ok = identical;
  if (overhead > budget && (m_on - m_off) > abs_floor) {
    std::printf("FAIL: %s overhead %.2f%% exceeds the %.1f%% budget\n",
                armName(arm), 100.0 * overhead, 100.0 * budget);
    ok = false;
  }
  if (!identical)
    std::printf("FAIL: %s instrumentation perturbed the trajectory\n",
                armName(arm));
  return ok;
}

}  // namespace

int main() {
  const bool fast = exp::fastModeFromEnv();
  int repeats = exp::repeatsFromEnv(5);
  if (fast) repeats = std::min(repeats, 3);
  repeats = std::max(repeats, 1);

  double budget = 0.02;
  if (const char* b = std::getenv("CMMFO_OBS_BUDGET")) budget = std::atof(b);
  // Absolute noise floor: on sub-second runs, scheduler jitter alone can
  // exceed 2% — never fail on less than 25 ms of absolute difference (50 ms
  // for the threaded server arm, whose start/stop adds scheduler noise).
  const double abs_floor = 0.025;

  std::printf("observability overhead: SpmvCrs seed-77 golden spec, "
              "%d repeats per arm, budget %.1f%%\n\n",
              repeats, 100.0 * budget);

  bool ok = true;
  ok &= runArm(Arm::kSync, repeats, budget, abs_floor);
  ok &= runArm(Arm::kAsync, repeats, budget, abs_floor);
  ok &= runArm(Arm::kServer, repeats, budget, 2.0 * abs_floor);

  // Sample artifacts (the last instrumented run's buffers are still live —
  // the server arm, so the dump carries campaign trace roots and the
  // per-campaign SLO series).
  if (const char* p = std::getenv("CMMFO_OBS_TRACE")) {
    if (util::writeTextTo(p, obs::tracer().toJsonl()))
      std::printf("sample trace  -> %s (%zu events)\n", p,
                  obs::tracer().eventCount());
  }
  if (const char* p = std::getenv("CMMFO_OBS_METRICS")) {
    const bool json = std::string(p).ends_with(".json");
    if (util::writeTextTo(p, json ? obs::metrics().toJson()
                                  : obs::metrics().toCsv()))
      std::printf("sample metrics -> %s (%zu series)\n", p,
                  obs::metrics().snapshot().size());
  }

  return ok ? 0 : 1;
}
