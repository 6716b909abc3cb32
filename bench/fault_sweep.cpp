// Fault-tolerance study of the evaluation layer (an extension beyond the
// paper; the flows of Sec. V implicitly assume every tool run succeeds).
//
// Sweeps the per-stage transient crash probability injected into the
// simulated FPGA flow while the optimizer runs with its retry/backoff/
// degradation machinery enabled. Every point spends the same proposal
// budget; what changes is how much charged tool time is burned by failed
// attempts and how much of the fidelity ladder survives.
//
// Reported per crash rate: mean ADRS, charged tool hours, simulated
// wall-clock hours, wasted retry hours (subset of charged — the honest cost
// of flakiness), backoff wait hours (wall-only), attempts per tool run, and
// degraded/abandoned job counts. The expected picture: ADRS degrades
// smoothly (degraded impl jobs still contribute their hls/syn prefixes to
// the datasets) while wasted time grows with the crash rate.

#include <cstdio>
#include <vector>

#include "exp/harness.h"

using namespace cmmfo;

int main() {
  const bool fast = exp::fastModeFromEnv();
  const int repeats = exp::repeatsFromEnv(fast ? 2 : 5);

  exp::BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  std::printf("SPMV-CRS: %zu configurations, %zu true Pareto points, "
              "%d repeats per crash rate\n\n",
              ctx.space().size(), ctx.groundTruth().paretoFront().size(),
              repeats);

  core::OptimizerOptions base;
  base.n_iter = fast ? 12 : 32;
  base.max_candidates = fast ? 80 : 250;
  base.mc_samples = fast ? 16 : 32;
  base.refit_every = 4;
  if (fast) {
    base.surrogate.mtgp.mle_restarts = 0;
    base.surrogate.gp.mle_restarts = 0;
  }
  base.retry.max_attempts = 3;

  struct Row {
    double rate = 0.0;
    double adrs = 0.0;
    double charged_h = 0.0;
    double wall_h = 0.0;
    double wasted_h = 0.0;
    double backoff_h = 0.0;
    double attempts_per_run = 0.0;
    int degraded = 0;
    int persistent = 0;
  };
  std::vector<Row> rows;

  for (const double rate : {0.0, 0.02, 0.05, 0.10, 0.15}) {
    sim::FaultParams faults;
    faults.transient_crash_prob = rate;
    ctx.sim().setFaultParams(faults);

    const auto method = baselines::BoMethod::ours(base);
    Row row;
    row.rate = rate;
    int attempts = 0, runs = 0;
    for (int r = 0; r < repeats; ++r) {
      const baselines::DseOutcome out =
          method.run(ctx.space(), ctx.sim(), 1000 + r);
      row.adrs += ctx.adrsOf(out.selected) / repeats;
      row.charged_h += out.tool_seconds / 3600.0 / repeats;
      row.wall_h += out.wall_seconds / 3600.0 / repeats;
      row.wasted_h += out.wasted_seconds / 3600.0 / repeats;
      row.backoff_h += out.backoff_seconds / 3600.0 / repeats;
      row.degraded += out.degraded_jobs;
      row.persistent += out.persistent_failures;
      attempts += out.attempts;
      runs += out.tool_runs;
    }
    row.attempts_per_run = runs > 0 ? static_cast<double>(attempts) / runs : 0;
    rows.push_back(row);
  }
  ctx.sim().setFaultParams({});

  std::printf("%7s %9s %11s %9s %10s %11s %9s %9s %7s\n", "rate", "ADRS",
              "charged/h", "wall/h", "wasted/h", "backoff/h", "att/run",
              "degraded", "abandn");
  for (const Row& r : rows)
    std::printf("%6.0f%% %9.4f %11.2f %9.2f %10.2f %11.2f %9.2f %9d %7d\n",
                100.0 * r.rate, r.adrs, r.charged_h, r.wall_h, r.wasted_h,
                r.backoff_h, r.attempts_per_run, r.degraded, r.persistent);
  std::printf(
      "\nwasted/h is charged time burned by failed attempts (subset of "
      "charged/h); backoff/h extends wall-clock only. degraded = jobs that "
      "fell back to a completed lower fidelity; abandn = jobs lost to "
      "persistent per-design faults.\n");
  return 0;
}
