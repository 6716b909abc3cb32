// Asynchronous-pipeline scaling study: event-driven proposals vs the
// round-barrier batch runtime at EQUAL worker count and EQUAL proposal
// budget, under a straggler-heavy fault mix (license stalls + occasional
// hangs + transient crashes) where barrier idling hurts most.
//
// Per farm width W the same budget runs two ways:
//  - sync:  batch_size = n_workers = W, Kriging-believer q-PEIPV rounds;
//    every round waits for its slowest job before the next fit.
//  - async: OptimizerOptions::async, n_workers = W; the moment a worker
//    frees it pulls a fresh believer-conditioned argmax-PEIPV proposal, so
//    heterogeneous fidelities overlap and a stalled run never idles the
//    rest of the farm.
//
// The straggler mechanism is dominated by license stalls: a flat
// per-attempt charge (~900 s) that hits cheap HLS evaluations hardest,
// spreading per-job durations across a wide range without inflating the
// (identical-in-both-arms) initial-design implementation runs. SPMV is
// used rather than GEMM because its posterior drives mixed-fidelity
// proposals, which is exactly the heterogeneity the round barrier
// serializes on.
//
// Reported per arm: mean ADRS, charged tool hours (equal to first order —
// the budget is fixed), simulated wall-clock hours, idle worker hours
// (W * wall - charged - backoff: time workers sat at a barrier or ran out
// of in-flight work), and the async-over-sync wall-clock speedup at each W.
//
// With CMMFO_PERF_GATE set (non-empty, not "0") the binary exits non-zero
// unless async clears >= 1.3x wall-clock over sync at W = 4 with ADRS
// inside the no-regression band. --out PATH additionally writes the
// numbers as JSON (archived as BENCH_9.json by run_benches.sh).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/harness.h"
#include "util/json.h"

using namespace cmmfo;

namespace {

struct Arm {
  int workers = 0;
  bool async = false;
  double adrs = 0.0;
  double charged_h = 0.0;
  double wall_h = 0.0;
  double backoff_h = 0.0;
  double idle_h = 0.0;  // W * wall - charged - backoff
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  const bool fast = exp::fastModeFromEnv();
  // The gate wants stable repeat means even in fast mode, so don't take
  // repeatsFromEnv's fast-mode shrink to 2; an explicit CMMFO_REPEATS
  // still wins.
  int repeats = fast ? 4 : 6;
  if (const char* s = std::getenv("CMMFO_REPEATS")) {
    const int v = std::atoi(s);
    if (v > 0) repeats = v;
  }

  exp::BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  std::printf("SPMV: %zu configurations, %zu true Pareto points, "
              "%d repeats per arm\n\n",
              ctx.space().size(), ctx.groundTruth().paretoFront().size(),
              repeats);

  // Straggler-heavy mix: license stalls add a flat ~15-minute charge to a
  // third of the attempts (the dominant duration spreader), a few hung
  // runs take 8x their nominal charge, and transient crashes keep the
  // retry path honest.
  sim::FaultParams faults;
  faults.license_stall_prob = 0.30;
  faults.license_stall_seconds = 900.0;
  faults.transient_crash_prob = 0.03;
  faults.hang_prob = 0.02;
  faults.hang_multiplier = 8.0;
  ctx.sim().setFaultParams(faults);

  core::OptimizerOptions base;
  base.n_iter = fast ? 32 : 40;
  base.max_candidates = 80;
  base.mc_samples = 16;
  base.refit_every = 4;
  base.surrogate.mtgp.mle_restarts = 0;
  base.surrogate.gp.mle_restarts = 0;
  base.retry.max_attempts = 3;

  std::vector<Arm> arms;
  for (const int w : {4, 8}) {
    for (const bool async : {false, true}) {
      core::OptimizerOptions o = base;
      o.n_workers = w;
      if (async) {
        o.async = true;
      } else {
        o.batch_size = w;
      }
      const auto method = baselines::BoMethod::ours(o);
      Arm arm;
      arm.workers = w;
      arm.async = async;
      for (int r = 0; r < repeats; ++r) {
        const baselines::DseOutcome out =
            method.run(ctx.space(), ctx.sim(), 1000 + r);
        arm.adrs += ctx.adrsOf(out.selected) / repeats;
        arm.charged_h += out.tool_seconds / 3600.0 / repeats;
        arm.wall_h += out.wall_seconds / 3600.0 / repeats;
        arm.backoff_h += out.backoff_seconds / 3600.0 / repeats;
      }
      arm.idle_h = w * arm.wall_h - arm.charged_h - arm.backoff_h;
      arms.push_back(arm);
    }
  }
  ctx.sim().setFaultParams({});

  std::printf("%3s %6s %10s %12s %10s %10s %10s\n", "W", "mode", "ADRS",
              "charged/h", "wall/h", "idle/h", "speedup");
  double gate_speedup = 0.0, gate_adrs_sync = 0.0, gate_adrs_async = 0.0;
  for (std::size_t i = 0; i < arms.size(); i += 2) {
    const Arm& sync = arms[i];
    const Arm& async_arm = arms[i + 1];
    const double speedup =
        async_arm.wall_h > 1e-12 ? sync.wall_h / async_arm.wall_h : 0.0;
    std::printf("%3d %6s %10.4f %12.2f %10.2f %10.2f %10s\n", sync.workers,
                "sync", sync.adrs, sync.charged_h, sync.wall_h, sync.idle_h,
                "1.00x");
    std::printf("%3d %6s %10.4f %12.2f %10.2f %10.2f %9.2fx\n",
                async_arm.workers, "async", async_arm.adrs,
                async_arm.charged_h, async_arm.wall_h, async_arm.idle_h,
                speedup);
    if (sync.workers == 4) {
      gate_speedup = speedup;
      gate_adrs_sync = sync.adrs;
      gate_adrs_async = async_arm.adrs;
    }
  }
  std::printf(
      "\nspeedup = wall-clock(sync)/wall-clock(async) at equal W and equal "
      "proposal budget; idle/h = W*wall - charged - backoff (barrier wait "
      "plus drained-window slack).\n");

  if (!out_path.empty()) {
    std::string j = "{\"bench\":\"async_scaling\",\"arms\":[";
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const Arm& a = arms[i];
      if (i != 0) j += ",";
      j += "{\"workers\":";
      util::putInt(j, a.workers);
      j += ",\"async\":";
      j += a.async ? "true" : "false";
      j += ",\"adrs\":";
      util::putDouble(j, a.adrs);
      j += ",\"charged_hours\":";
      util::putDouble(j, a.charged_h);
      j += ",\"wall_hours\":";
      util::putDouble(j, a.wall_h);
      j += ",\"idle_worker_hours\":";
      util::putDouble(j, a.idle_h);
      j += "}";
    }
    j += "],\"speedup_w4\":";
    util::putDouble(j, gate_speedup);
    j += ",\"adrs_sync_w4\":";
    util::putDouble(j, gate_adrs_sync);
    j += ",\"adrs_async_w4\":";
    util::putDouble(j, gate_adrs_async);
    j += "}\n";
    util::writeTextTo(out_path, j);
  }

  if (const char* gate = std::getenv("CMMFO_PERF_GATE");
      gate != nullptr && gate[0] != '\0' &&
      !(gate[0] == '0' && gate[1] == '\0')) {
    // No-regression band: per-seed ADRS noise under this fault mix is
    // sigma/mean ~ 25-40% per arm, so the band is set from measured
    // repeat means (async within 25% of sync, plus a hair of absolute
    // slack when sync is already near zero). Async's believer depth is
    // W-1 on every pick vs (B-1)/2 on average for the sync rounds, so a
    // small mean gap is structural, not a defect.
    const bool adrs_ok =
        gate_adrs_async <= gate_adrs_sync * 1.25 + 1e-3;
    const bool pass = gate_speedup >= 1.3 && adrs_ok;
    std::printf("\nperf-gate: %s (speedup %.2fx >= 1.30x: %s; ADRS %.4f vs "
                "%.4f sync: %s)\n",
                pass ? "PASS" : "FAIL", gate_speedup,
                gate_speedup >= 1.3 ? "yes" : "no", gate_adrs_async,
                gate_adrs_sync, adrs_ok ? "ok" : "regressed");
    return pass ? 0 : 1;
  }
  return 0;
}
