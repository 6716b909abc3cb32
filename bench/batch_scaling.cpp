// Batch-scaling study of the parallel evaluation runtime (an extension
// beyond the paper; Algorithm 2 itself is strictly sequential).
//
// Sweeps the proposal batch size B over {1, 2, 4, 8} with a tool farm of
// the same width, at a FIXED total proposal budget: every point spends the
// same number of BO proposals, so charged tool time is equal to first order
// and the comparison isolates what batching costs in sample efficiency
// (Kriging-believer fantasies instead of real observations) against what it
// buys in simulated wall-clock.
//
// Reported per B: mean ADRS, charged tool hours, simulated wall-clock
// hours, idle worker hours (B * wall - charged: time workers spend waiting
// at the round barrier for the batch's slowest job — the cost the async
// pipeline of bench/async_scaling removes), wall-clock speedup over the
// sequential flow, and ADRS degradation relative to B = 1.

#include <cstdio>
#include <vector>

#include "exp/harness.h"

using namespace cmmfo;

int main() {
  const bool fast = exp::fastModeFromEnv();
  const int repeats = exp::repeatsFromEnv(fast ? 2 : 5);

  exp::BenchmarkContext ctx(bench_suite::makeGemm());
  std::printf("GEMM: %zu configurations, %zu true Pareto points, "
              "%d repeats per batch size\n\n",
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

  struct Row {
    int batch = 0;
    double adrs = 0.0;
    double charged_h = 0.0;
    double wall_h = 0.0;
    double idle_h = 0.0;  // B * wall - charged: barrier wait time
  };
  std::vector<Row> rows;

  for (const int b : {1, 2, 4, 8}) {
    core::OptimizerOptions o = base;
    o.batch_size = b;
    o.n_workers = b;
    const auto method = baselines::BoMethod::ours(o);
    const exp::MethodStats s = exp::evaluateMethod(ctx, method, repeats, 1000);
    const double charged_h = s.time_mean / 3600.0;
    const double wall_h = s.wall_mean / 3600.0;
    rows.push_back(
        {b, s.adrs_mean, charged_h, wall_h, b * wall_h - charged_h});
  }

  const Row& seq = rows.front();
  std::printf("%6s %10s %12s %10s %10s %10s %14s\n", "B", "ADRS", "charged/h",
              "wall/h", "idle/h", "speedup", "ADRS degr./%");
  for (const Row& r : rows) {
    const double speedup = r.wall_h > 1e-12 ? seq.wall_h / r.wall_h : 0.0;
    const double degr =
        seq.adrs > 1e-12 ? 100.0 * (r.adrs - seq.adrs) / seq.adrs : 0.0;
    std::printf("%6d %10.4f %12.2f %10.2f %10.2f %9.2fx %+13.1f\n", r.batch,
                r.adrs, r.charged_h, r.wall_h, r.idle_h, speedup, degr);
  }
  std::printf("\nspeedup = wall-clock(B=1) / wall-clock(B); every row spends "
              "the same proposal budget. idle/h = B*wall - charged: worker "
              "time lost waiting at the round barrier for the batch's "
              "slowest job.\n");
  return 0;
}
