// Ablation bench for the design choices DESIGN.md calls out (Sec. IV):
//   1. non-linear vs linear vs none multi-fidelity chaining,
//   2. correlated vs independent multi-objective models,
//   3. PEIPV cost penalty on vs off,
//   4. tree-pruned vs raw (capped) design space.
// Run on GEMM and SPMV_CRS; reports ADRS and tool time per variant.

#include <cstdio>

#include "exp/harness.h"

using namespace cmmfo;

namespace {

core::OptimizerOptions baseOpts(bool fast) {
  core::OptimizerOptions bo;
  bo.n_iter = fast ? 10 : 30;
  bo.mc_samples = fast ? 16 : 32;
  bo.max_candidates = fast ? 80 : 250;
  bo.refit_every = 4;
  return bo;
}

struct Variant {
  const char* label;
  core::OptimizerOptions opts;
};

void runVariants(const std::string& bench_name, int repeats, bool fast) {
  exp::BenchmarkContext ctx(bench_suite::makeBenchmark(bench_name));
  std::printf("== %s (space=%zu, repeats=%d) ==\n", bench_name.c_str(),
              ctx.space().size(), repeats);

  std::vector<Variant> variants;
  {
    Variant v{"full (nonlinear+correlated+penalty)", baseOpts(fast)};
    variants.push_back(v);
  }
  {
    Variant v{"linear MF chain", baseOpts(fast)};
    v.opts.surrogate.mf = core::MfKind::kLinear;
    variants.push_back(v);
  }
  {
    Variant v{"no MF chain (single-fidelity models)", baseOpts(fast)};
    v.opts.surrogate.mf = core::MfKind::kSingleFidelity;
    variants.push_back(v);
  }
  {
    Variant v{"independent objectives", baseOpts(fast)};
    v.opts.surrogate.obj = core::ObjModelKind::kIndependent;
    variants.push_back(v);
  }
  {
    Variant v{"no cost penalty", baseOpts(fast)};
    v.opts.cost_penalty = false;
    variants.push_back(v);
  }

  std::printf("%-40s %8s %8s %10s %14s\n", "variant", "ADRS", "std",
              "tool-time", "picks h/s/i");
  for (const auto& v : variants) {
    // Drive the optimizer directly: it reports picks_per_fidelity, which a
    // DseOutcome does not carry.
    std::vector<double> adrs, times;
    std::array<int, 3> picks{};
    for (int r = 0; r < repeats; ++r) {
      ctx.sim().resetAccounting();
      core::OptimizerOptions o = v.opts;
      o.seed = 900 + 31 * r;
      core::CorrelatedMfMoboOptimizer opt(ctx.space(), ctx.sim(), o);
      const auto res = opt.run();
      std::vector<std::size_t> sel;
      for (const auto& rec : res.cs) sel.push_back(rec.config);
      adrs.push_back(ctx.adrsOf(sel));
      times.push_back(res.tool_seconds);
      for (int f = 0; f < 3; ++f) picks[f] += res.picks_per_fidelity[f];
    }
    std::printf("%-40s %8.4f %8.4f %9.0fs %5d/%d/%d\n", v.label,
                linalg::mean(adrs), linalg::sampleStddev(adrs),
                linalg::mean(times), picks[0], picks[1], picks[2]);
  }

  // Pruning-off ablation: same optimizer on the RAW (capped) space.
  {
    const auto bm = bench_suite::makeBenchmark(bench_name);
    const auto raw_space =
        hls::DesignSpace::buildRaw(bm.kernel, bm.spec, ctx.space().size() * 4);
    sim::FpgaToolSim raw_sim(bm.kernel, sim::DeviceModel::virtex7Vc707(),
                             bm.sim_params, 42);
    std::vector<double> adrs;
    for (int r = 0; r < repeats; ++r) {
      raw_sim.resetAccounting();
      core::OptimizerOptions o = baseOpts(fast);
      o.seed = 900 + 31 * r;
      core::CorrelatedMfMoboOptimizer opt(raw_space, raw_sim, o);
      const auto res = opt.run();
      // Score against the PRUNED ground truth: proposals are matched by
      // directive-config hash.
      std::vector<std::size_t> sel;
      for (const auto& rec : res.cs)
        for (std::size_t i = 0; i < ctx.space().size(); ++i)
          if (ctx.space().config(i).hash() == raw_space.config(rec.config).hash())
            sel.push_back(i);
      adrs.push_back(ctx.adrsOf(sel));
    }
    std::printf("%-40s %8.4f %8s %10s\n", "no pruning (raw space, capped)",
                linalg::mean(adrs), "-", "-");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const bool fast = exp::fastModeFromEnv();
  const int repeats = exp::repeatsFromEnv(3);
  runVariants("gemm", repeats, fast);
  runVariants("spmv_crs", repeats, fast);
  return 0;
}
