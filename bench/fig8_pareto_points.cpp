// Regenerates Fig. 8: learned Pareto points of every method vs the real
// Pareto front, for GEMM and SPMV_ELLPACK, projected onto the (LUT, Delay)
// and (Power, Delay) planes (objectives min-max normalized as in the paper).
//
// Output: "# series <benchmark> <method>" blocks of "power delay lut" rows,
// plus each method's ADRS for the run shown.

#include <cstdio>

#include "exp/harness.h"

using namespace cmmfo;

namespace {

void dumpSeries(exp::BenchmarkContext& ctx, const char* bench,
                const char* label, const std::vector<std::size_t>& selected) {
  // True post-impl values of the proposal, normalized by ground-truth ranges.
  const auto& gt = ctx.groundTruth();
  pareto::Point lo(sim::kNumObjectives, 1e300), hi(sim::kNumObjectives, -1e300);
  for (std::size_t i = 0; i < gt.size(); ++i) {
    if (!gt.valid(i)) continue;
    const auto y = gt.implObjectives(i);
    for (int m = 0; m < sim::kNumObjectives; ++m) {
      lo[m] = std::min(lo[m], y[m]);
      hi[m] = std::max(hi[m], y[m]);
    }
  }
  std::printf("# series %s %s (power delay lut, normalized)\n", bench, label);
  for (std::size_t i : selected) {
    if (!gt.valid(i)) continue;
    const auto y = gt.implObjectives(i);
    std::printf("%.4f %.4f %.4f\n", (y[0] - lo[0]) / (hi[0] - lo[0]),
                (y[1] - lo[1]) / (hi[1] - lo[1]),
                (y[2] - lo[2]) / (hi[2] - lo[2]));
  }
}

}  // namespace

int main() {
  const bool fast = exp::fastModeFromEnv();
  core::OptimizerOptions bo;
  bo.n_iter = fast ? 12 : 40;
  bo.mc_samples = fast ? 16 : 32;
  bo.max_candidates = fast ? 100 : 300;
  bo.refit_every = 4;
  baselines::MlpOptions mlp;
  if (fast) mlp.epochs = 300;

  const auto ours = baselines::BoMethod::ours(bo);
  const auto fpl18 = baselines::BoMethod::fpl18(bo);
  const auto ann = baselines::RegressionMethod::ann(mlp);
  const auto bt = baselines::RegressionMethod::bt();
  const baselines::Dac19Method dac19;

  for (const std::string name : {"gemm", "spmv_ellpack"}) {
    exp::BenchmarkContext ctx(bench_suite::makeBenchmark(name));
    dumpSeries(ctx, name.c_str(), "RealPareto",
               ctx.groundTruth().paretoIndices());
    for (const baselines::DseMethod* m :
         std::initializer_list<const baselines::DseMethod*>{
             &ours, &fpl18, &ann, &bt, &dac19}) {
      const auto out = m->run(ctx.space(), ctx.sim(), 4242);
      dumpSeries(ctx, name.c_str(), m->name().c_str(), out.selected);
      std::printf("# %s %s ADRS = %.4f\n\n", name.c_str(), m->name().c_str(),
                  ctx.adrsOf(out.selected));
    }
  }
  return 0;
}
