#include <gtest/gtest.h>

#include "baselines/methods.h"
#include "bench_suite/benchmarks.h"
#include "core/optimizer.h"
#include "exp/harness.h"

namespace cmmfo::core {
namespace {

OptimizerOptions fastOpts() {
  OptimizerOptions o;
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

struct Fixture {
  Fixture()
      : bm(bench_suite::makeSpmvCrs()),
        space(hls::DesignSpace::buildPruned(bm.kernel, bm.spec)),
        sim(bm.kernel, sim::DeviceModel::virtex7Vc707(), bm.sim_params, 42) {}
  bench_suite::Benchmark bm;
  hls::DesignSpace space;
  sim::FpgaToolSim sim;
};

TEST(Optimizer, CsContainsInitPlusIterations) {
  Fixture f;
  OptimizerOptions o = fastOpts();
  CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const OptimizeResult res = opt.run();
  EXPECT_EQ(res.cs.size(), static_cast<std::size_t>(o.n_init_hls + o.n_iter));
  int picks = 0;
  for (int c : res.picks_per_fidelity) picks += c;
  EXPECT_EQ(picks, o.n_iter);
}

TEST(Optimizer, NoConfigSampledTwice) {
  Fixture f;
  CorrelatedMfMoboOptimizer opt(f.space, f.sim, fastOpts());
  const OptimizeResult res = opt.run();
  std::set<std::size_t> seen;
  for (const auto& rec : res.cs) EXPECT_TRUE(seen.insert(rec.config).second);
}

TEST(Optimizer, ToolTimeChargedMatchesSim) {
  Fixture f;
  f.sim.resetAccounting();
  CorrelatedMfMoboOptimizer opt(f.space, f.sim, fastOpts());
  const OptimizeResult res = opt.run();
  EXPECT_GT(res.tool_seconds, 0.0);
  EXPECT_DOUBLE_EQ(res.tool_seconds, f.sim.totalToolSeconds());
  EXPECT_EQ(res.tool_runs,
            fastOpts().n_init_hls + fastOpts().n_iter);
}

TEST(Optimizer, DeterministicForFixedSeed) {
  Fixture f1, f2;
  OptimizerOptions o = fastOpts();
  o.seed = 77;
  CorrelatedMfMoboOptimizer a(f1.space, f1.sim, o);
  CorrelatedMfMoboOptimizer b(f2.space, f2.sim, o);
  const auto ra = a.run(), rb = b.run();
  ASSERT_EQ(ra.cs.size(), rb.cs.size());
  for (std::size_t i = 0; i < ra.cs.size(); ++i)
    EXPECT_EQ(ra.cs[i].config, rb.cs[i].config);
}

TEST(Optimizer, DifferentSeedsExploreDifferently) {
  Fixture f1, f2;
  OptimizerOptions o = fastOpts();
  o.seed = 1;
  CorrelatedMfMoboOptimizer a(f1.space, f1.sim, o);
  o.seed = 2;
  CorrelatedMfMoboOptimizer b(f2.space, f2.sim, o);
  const auto ra = a.run(), rb = b.run();
  bool any_diff = false;
  for (std::size_t i = 0; i < ra.cs.size(); ++i)
    if (ra.cs[i].config != rb.cs[i].config) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Optimizer, MostPicksAtCheapFidelities) {
  // The PEIPV penalty (T_impl / T_i) should keep the bulk of the BO picks
  // at the cheaper stages.
  Fixture f;
  OptimizerOptions o = fastOpts();
  o.n_iter = 16;
  CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  EXPECT_GE(res.picks_per_fidelity[0] + res.picks_per_fidelity[1],
            res.picks_per_fidelity[2]);
}

TEST(Optimizer, BeatsRandomSamplingAtEqualRunCount) {
  exp::BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  OptimizerOptions o = fastOpts();
  o.n_iter = 20;
  const auto ours = baselines::BoMethod::ours(o);
  // Random gets the same number of tool runs, all at impl (more information
  // per run than ours gets!) — BO must still win on ADRS.
  baselines::RandomMethod random(28);
  const auto s_ours = exp::evaluateMethod(ctx, ours, 3, 11);
  const auto s_rand = exp::evaluateMethod(ctx, random, 3, 11);
  EXPECT_LT(s_ours.adrs_mean, s_rand.adrs_mean * 1.2);
}

TEST(Optimizer, ExhaustsTinySpaceGracefully) {
  // A space smaller than init + iters: the loop must stop early, sampling
  // every configuration exactly once.
  hls::Kernel k("tiny");
  const hls::ArrayId a = k.addArray("a", 32);
  const hls::LoopId l = k.addLoop("l", 32);
  k.loop(l).body_ops[hls::OpKind::kAdd] = 1;
  k.loop(l).body_ops[hls::OpKind::kLoad] = 1;
  k.loop(l).refs.push_back({a, {{l, hls::IndexRole::kMinor}}, false, 1});
  hls::SpaceSpec spec;
  spec.loops.resize(1);
  spec.arrays.resize(1);
  spec.loops[0].unroll_factors = {1, 2, 4, 8};
  spec.loops[0].allow_pipeline = true;
  spec.loops[0].pipeline_iis = {1, 2};
  spec.arrays[0].types = {hls::PartitionType::kNone, hls::PartitionType::kCyclic};
  spec.arrays[0].factors = {1, 2, 4, 8};
  const auto space = hls::DesignSpace::buildPruned(k, spec);
  ASSERT_LT(space.size(), 40u);
  sim::FpgaToolSim sim(k, sim::DeviceModel::virtex7Vc707(), {}, 42);

  OptimizerOptions o = fastOpts();
  o.n_iter = 1000;
  o.max_candidates = 10000;
  o.mc_samples = 4;
  o.refit_every = 50;
  CorrelatedMfMoboOptimizer opt(space, sim, o);
  const auto res = opt.run();
  EXPECT_EQ(res.cs.size(), space.size());
}

TEST(Optimizer, SurrogateFittedAfterRun) {
  Fixture f;
  CorrelatedMfMoboOptimizer opt(f.space, f.sim, fastOpts());
  opt.run();
  EXPECT_TRUE(opt.surrogate().fitted());
  // The paper's central claim object: a learned task correlation exists.
  const auto corr = opt.surrogate().taskCorrelation(0);
  EXPECT_EQ(corr.rows(), 3u);
  EXPECT_NEAR(corr(0, 0), 1.0, 1e-6);
}

TEST(Optimizer, IterationLogTracksEveryStep) {
  Fixture f;
  OptimizerOptions o = fastOpts();
  CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  ASSERT_EQ(res.iterations.size(), static_cast<std::size_t>(o.n_iter));
  for (std::size_t i = 0; i < res.iterations.size(); ++i) {
    EXPECT_EQ(res.iterations[i].iteration, static_cast<int>(i));
    EXPECT_GE(res.iterations[i].peipv, 0.0);
    EXPECT_LT(res.iterations[i].config, f.space.size());
    // The logged pick matches the CS entry appended that step.
    EXPECT_EQ(res.iterations[i].config,
              res.cs[o.n_init_hls + i].config);
  }
}

TEST(Optimizer, CostPenaltyOffStillRuns) {
  Fixture f;
  OptimizerOptions o = fastOpts();
  o.cost_penalty = false;
  CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  EXPECT_EQ(res.cs.size(), static_cast<std::size_t>(o.n_init_hls + o.n_iter));
}

TEST(Optimizer, LinearIndependentVariantRuns) {
  Fixture f;
  OptimizerOptions o = fastOpts();
  o.surrogate.mf = MfKind::kLinear;
  o.surrogate.obj = ObjModelKind::kIndependent;
  CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  EXPECT_EQ(res.cs.size(), static_cast<std::size_t>(o.n_init_hls + o.n_iter));
}

}  // namespace
}  // namespace cmmfo::core
