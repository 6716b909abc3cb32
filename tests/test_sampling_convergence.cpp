#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "exp/convergence.h"
#include "linalg/vec_ops.h"
#include "opt/sampling.h"

namespace cmmfo {
namespace {

std::vector<std::vector<double>> gridFeatures(int side) {
  std::vector<std::vector<double>> f;
  for (int i = 0; i < side; ++i)
    for (int j = 0; j < side; ++j)
      f.push_back({i / double(side - 1), j / double(side - 1)});
  return f;
}

TEST(Sampling, RandomSubsetDistinctAndBounded) {
  rng::Rng rng(1);
  const auto s = opt::randomSubset(50, 10, rng);
  EXPECT_EQ(s.size(), 10u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  const auto all = opt::randomSubset(5, 10, rng);
  EXPECT_EQ(all.size(), 5u);  // clamped to n
}

TEST(Sampling, MaximinSpreadsBetterThanRandom) {
  rng::Rng rng(2);
  const auto feats = gridFeatures(12);  // 144 points
  auto minPairDist = [&](const std::vector<std::size_t>& idx) {
    double best = 1e300;
    for (std::size_t a = 0; a < idx.size(); ++a)
      for (std::size_t b = a + 1; b < idx.size(); ++b)
        best = std::min(best, linalg::dist2(feats[idx[a]], feats[idx[b]]));
    return best;
  };
  double random_avg = 0.0, maximin_avg = 0.0;
  for (int t = 0; t < 10; ++t) {
    random_avg += minPairDist(opt::randomSubset(feats.size(), 8, rng));
    maximin_avg += minPairDist(opt::maximinSubset(feats, 8, rng));
  }
  EXPECT_GT(maximin_avg, random_avg * 1.5);
}

TEST(Sampling, MaximinDistinctIndices) {
  rng::Rng rng(3);
  const auto feats = gridFeatures(6);
  const auto s = opt::maximinSubset(feats, 12, rng);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 12u);
}

TEST(Optimizer, MaximinInitDesignRuns) {
  exp::BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  core::OptimizerOptions o;
  o.n_iter = 6;
  o.mc_samples = 8;
  o.max_candidates = 40;
  o.refit_every = 6;
  o.init_design = core::InitDesign::kMaximin;
  core::CorrelatedMfMoboOptimizer opt(ctx.space(), ctx.sim(), o);
  const auto res = opt.run();
  EXPECT_EQ(res.cs.size(), static_cast<std::size_t>(o.n_init_hls + o.n_iter));
}

TEST(Convergence, CurveTracksEverySample) {
  exp::BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  core::OptimizerOptions o;
  o.n_iter = 8;
  o.mc_samples = 8;
  o.max_candidates = 40;
  o.refit_every = 8;
  core::CorrelatedMfMoboOptimizer opt(ctx.space(), ctx.sim(), o);
  const auto res = opt.run();
  const auto curve = exp::convergenceCurve(ctx, res);
  ASSERT_EQ(curve.size(), res.cs.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(curve[i].samples, static_cast<int>(i + 1));
    EXPECT_TRUE(std::isfinite(curve[i].adrs));
    EXPECT_GE(curve[i].hypervolume, 0.0);
    if (i > 0) {
      // Hypervolume of a growing set is monotone, as is spent tool time.
      // (ADRS is NOT strictly monotone: the learned set is Pareto-filtered,
      // and a dominating-but-farther proposal can evict a nearer one.)
      EXPECT_GE(curve[i].hypervolume, curve[i - 1].hypervolume - 1e-12);
      EXPECT_GE(curve[i].tool_seconds, curve[i - 1].tool_seconds);
    }
  }
  // The search must end at least as close to the front as it started.
  EXPECT_LE(curve.back().adrs, curve.front().adrs + 1e-12);
}

TEST(Convergence, AucSummarizesCurve) {
  std::vector<exp::ConvergencePoint> fast = {{1, 0, 0.5, 0}, {2, 0, 0.1, 0}};
  std::vector<exp::ConvergencePoint> slow = {{1, 0, 0.5, 0}, {2, 0, 0.4, 0}};
  EXPECT_LT(exp::adrsAuc(fast), exp::adrsAuc(slow));
}

TEST(WeightedSumBo, RunsAndFindsReasonablePoints) {
  exp::BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  baselines::WeightedSumBoMethod ws(8, 12);
  const auto out = ws.run(ctx.space(), ctx.sim(), 11);
  EXPECT_EQ(out.tool_runs, 20);
  EXPECT_GT(out.tool_seconds, 0.0);
  const double adrs = ctx.adrsOf(out.selected);
  EXPECT_TRUE(std::isfinite(adrs));
  // Scalarization drives toward ONE region of the front; it should lag the
  // Pareto-aware optimizer but still beat garbage.
  EXPECT_LT(adrs, 1.0);
}

TEST(WeightedSumBo, CustomWeightsShiftFocus) {
  exp::BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  baselines::WeightedSumBoMethod delay_heavy(8, 10, {0.05, 0.9, 0.05});
  baselines::WeightedSumBoMethod power_heavy(8, 10, {0.9, 0.05, 0.05});
  const auto a = delay_heavy.run(ctx.space(), ctx.sim(), 13);
  const auto b = power_heavy.run(ctx.space(), ctx.sim(), 13);
  // Best achieved delay under the delay-heavy weighting should not be worse
  // than under the power-heavy one.
  auto bestDelay = [&](const baselines::DseOutcome& out) {
    double best = 1e300;
    for (std::size_t i : out.selected)
      if (ctx.groundTruth().valid(i))
        best = std::min(best, ctx.groundTruth().implObjectives(i)[1]);
    return best;
  };
  EXPECT_LE(bestDelay(a), bestDelay(b) * 1.5);
}

}  // namespace
}  // namespace cmmfo
