#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "baselines/methods.h"
#include "bench_suite/benchmarks.h"
#include "exp/harness.h"
#include "scenario/generator.h"
#include "scenario/oracle.h"

namespace cmmfo::baselines {
namespace {

TEST(Mlp, FitsLinearFunction) {
  rng::Rng rng(1);
  MlpOptions opts;
  opts.epochs = 1500;
  Mlp net(2, opts);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(3.0 * x.back()[0] - 2.0 * x.back()[1] + 1.0);
  }
  net.fit(x, y, rng);
  double se = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = net.predict(x[i]) - y[i];
    se += e * e;
  }
  EXPECT_LT(std::sqrt(se / x.size()), 0.15);
}

TEST(Mlp, FitsNonlinearFunction) {
  rng::Rng rng(2);
  MlpOptions opts;
  opts.epochs = 3000;
  Mlp net(1, opts);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double v = i / 49.0;
    x.push_back({v});
    y.push_back(std::sin(6.0 * v));
  }
  net.fit(x, y, rng);
  EXPECT_LT(net.trainingLoss(), 0.05);
}

TEST(Mlp, HandlesLargeTargetScale) {
  rng::Rng rng(3);
  Mlp net(1);
  std::vector<std::vector<double>> x = {{0.0}, {0.5}, {1.0}};
  std::vector<double> y = {1e4, 2e4, 3e4};
  net.fit(x, y, rng);
  EXPECT_NEAR(net.predict({0.5}), 2e4, 2.5e3);
}

TEST(Gbrt, FitsStepFunction) {
  rng::Rng rng(4);
  Gbrt model;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    const double v = i / 59.0;
    x.push_back({v});
    y.push_back(v < 0.5 ? 1.0 : 5.0);
  }
  model.fit(x, y, rng);
  EXPECT_NEAR(model.predict({0.2}), 1.0, 0.3);
  EXPECT_NEAR(model.predict({0.8}), 5.0, 0.3);
}

TEST(Gbrt, FitsAdditiveFunction) {
  rng::Rng rng(5);
  GbrtOptions opts;
  opts.num_trees = 300;
  Gbrt model(opts);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(2.0 * x.back()[0] + std::sin(5.0 * x.back()[1]));
  }
  model.fit(x, y, rng);
  double se = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = model.predict(x[i]) - y[i];
    se += e * e;
  }
  EXPECT_LT(std::sqrt(se / x.size()), 0.25);
}

TEST(Gbrt, DepthZeroIsConstantModel) {
  rng::Rng rng(6);
  GbrtOptions opts;
  opts.max_depth = 0;
  Gbrt model(opts);
  std::vector<std::vector<double>> x = {{0.0}, {1.0}};
  std::vector<double> y = {0.0, 10.0};
  model.fit(x, y, rng);
  EXPECT_NEAR(model.predict({0.0}), model.predict({1.0}), 1e-9);
}

struct MethodsFixture {
  MethodsFixture() : ctx(bench_suite::makeSpmvCrs()) {}
  exp::BenchmarkContext ctx;
};

TEST(Methods, AnnProposesValidIndices) {
  MethodsFixture f;
  MlpOptions mo;
  mo.epochs = 300;  // keep the test quick
  const auto ann = RegressionMethod::ann(mo);
  const DseOutcome out = ann.run(f.ctx.space(), f.ctx.sim(), 9);
  EXPECT_FALSE(out.selected.empty());
  for (std::size_t i : out.selected) EXPECT_LT(i, f.ctx.space().size());
  EXPECT_GT(out.tool_seconds, 0.0);
  EXPECT_EQ(out.tool_runs, 48);
}

TEST(Methods, BtProposesValidIndices) {
  MethodsFixture f;
  const auto bt = RegressionMethod::bt();
  const DseOutcome out = bt.run(f.ctx.space(), f.ctx.sim(), 9);
  EXPECT_FALSE(out.selected.empty());
  for (std::size_t i : out.selected) EXPECT_LT(i, f.ctx.space().size());
}

TEST(Methods, Dac19CostsRoughlySevenTimesAnn) {
  // Table I: DAC19's running time is (3+11)/2 = 7x the single-set methods.
  MethodsFixture f;
  MlpOptions mo;
  mo.epochs = 50;
  const auto ann = RegressionMethod::ann(mo);
  Dac19Method dac(7);
  const double t_ann = ann.run(f.ctx.space(), f.ctx.sim(), 3).tool_seconds;
  const double t_dac = dac.run(f.ctx.space(), f.ctx.sim(), 3).tool_seconds;
  EXPECT_NEAR(t_dac / t_ann, 7.0, 1.5);
}

TEST(Methods, RandomSelectsObservedPareto) {
  MethodsFixture f;
  RandomMethod random(30);
  const DseOutcome out = random.run(f.ctx.space(), f.ctx.sim(), 5);
  EXPECT_FALSE(out.selected.empty());
  EXPECT_LE(out.selected.size(), 30u);
  EXPECT_EQ(out.tool_runs, 30);
}

TEST(Methods, BoMethodPinsItsModelKinds) {
  // Each arm pins its two model kinds over whatever the caller's options
  // carry, and keeps the caller's fit budgets.
  core::OptimizerOptions oo;
  oo.surrogate.mf = core::MfKind::kSingleFidelity;
  oo.surrogate.obj = core::ObjModelKind::kIndependent;
  oo.surrogate.gp.max_mle_iters = 7;
  oo.surrogate.mtgp.max_mle_iters = 9;
  const auto ours = BoMethod::ours(oo);
  EXPECT_EQ(ours.name(), "Ours");
  EXPECT_EQ(ours.options().surrogate.mf, core::MfKind::kNonlinear);
  EXPECT_EQ(ours.options().surrogate.obj, core::ObjModelKind::kCorrelated);

  oo.surrogate.obj = core::ObjModelKind::kCorrelated;
  const auto fpl18 = BoMethod::fpl18(oo);
  EXPECT_EQ(fpl18.name(), "FPL18");
  EXPECT_EQ(fpl18.options().surrogate.mf, core::MfKind::kLinear);
  EXPECT_EQ(fpl18.options().surrogate.obj, core::ObjModelKind::kIndependent);

  for (const BoMethod* m : {&ours, &fpl18}) {
    EXPECT_EQ(m->options().surrogate.gp.max_mle_iters, 7);
    EXPECT_EQ(m->options().surrogate.mtgp.max_mle_iters, 9);
  }
  EXPECT_EQ(RegressionMethod::ann().name(), "ANN");
  EXPECT_EQ(RegressionMethod::bt().name(), "BT");
  EXPECT_EQ(Dac19Method().name(), "DAC19");
}

/// One method's outcome as a line: name, tool runs, the bits of the charged
/// tool time and the selected design-space indices.
std::string outcomeLine(const DseMethod& method, const DseOutcome& out) {
  std::ostringstream line;
  line << method.name() << " runs=" << out.tool_runs << " secs=0x" << std::hex
       << std::bit_cast<std::uint64_t>(out.tool_seconds) << std::dec
       << " sel=";
  for (std::size_t i : out.selected) line << i << ',';
  return line.str();
}

// What every Table I method (and Random) selects on spmv_crs at seed 31 with
// reduced budgets, pinned bit for bit. A refactor of the methods must leave
// each line unchanged: the regression fits draw from one rng in objective
// order, and the BO arms differ only in the two surrogate kinds.
TEST(Methods, TableOneOutputsArePinned) {
  MethodsFixture f;
  core::OptimizerOptions bo;
  bo.n_iter = 4;
  bo.mc_samples = 8;
  bo.max_candidates = 40;
  bo.refit_every = 2;
  bo.surrogate.mtgp.max_mle_iters = 10;
  bo.surrogate.gp.max_mle_iters = 10;
  bo.surrogate.mtgp.mle_restarts = 0;
  bo.surrogate.gp.mle_restarts = 0;
  MlpOptions mlp;
  mlp.epochs = 40;
  GbrtOptions gbrt;
  gbrt.num_trees = 20;
  RegressionProtocol proto;
  proto.train_size = 12;

  const auto ours = BoMethod::ours(bo);
  const auto fpl18 = BoMethod::fpl18(bo);
  const auto ann = RegressionMethod::ann(mlp, proto);
  const auto bt = RegressionMethod::bt(gbrt, proto);
  const Dac19Method dac19(2, gbrt, proto);
  const RandomMethod random(12);
  const std::vector<const DseMethod*> methods = {&ours, &fpl18, &ann,
                                                 &bt,   &dac19, &random};
  const std::vector<std::string> expected = {
      "Ours runs=12 secs=0x40a40f6f7777d0c7 "
      "sel=216,244,182,113,240,207,264,70,255,159,21,209,",
      "FPL18 runs=12 secs=0x40a53ad2fb2a638d "
      "sel=216,244,182,113,240,207,264,70,66,78,28,64,",
      "ANN runs=12 secs=0x40bca0846965850b "
      "sel=1,2,3,33,45,49,50,51,97,98,99,145,146,147,",
      "BT runs=12 secs=0x40bca0846965850b "
      "sel=1,2,5,6,13,145,149,157,181,193,194,245,",
      "DAC19 runs=24 secs=0x40cd7e104b20b413 "
      "sel=53,54,58,74,101,106,149,178,225,",
      "Random runs=12 secs=0x40bca0846965850b sel=70,145,",
  };
  ASSERT_EQ(methods.size(), expected.size());
  for (std::size_t k = 0; k < methods.size(); ++k)
    EXPECT_EQ(outcomeLine(*methods[k],
                          methods[k]->run(f.ctx.space(), f.ctx.sim(), 31)),
              expected[k]);
}

// A training size above the space's collects every configuration once, and
// the tool runs reported are the configurations collected: 12 per training
// set on the 12-configuration scenario, not the 48 asked for.
TEST(Methods, ToolRunsCountTheConfigsCollected) {
  const auto oracle = scenario::Oracle::build(
      scenario::generateFromName("scenario:7:size=300"));
  ASSERT_NE(oracle, nullptr);
  ASSERT_EQ(oracle->space().size(), 12u);
  GbrtOptions gbrt;
  gbrt.num_trees = 5;
  RegressionProtocol proto;
  proto.train_size = 48;
  const auto bt = RegressionMethod::bt(gbrt, proto);
  const Dac19Method dac19(3, gbrt, proto);
  EXPECT_EQ(bt.run(oracle->space(), oracle->sim(), 5).tool_runs, 12);
  EXPECT_EQ(dac19.run(oracle->space(), oracle->sim(), 5).tool_runs, 3 * 12);
}

TEST(Methods, InvalidDesignsDoNotPoisonAnn) {
  // stencil3d has invalid high-utilization configs; ANN training must not
  // produce NaNs from the 10x-worst penalty rows.
  exp::BenchmarkContext ctx(bench_suite::makeStencil3d());
  MlpOptions mo;
  mo.epochs = 200;
  const auto ann = RegressionMethod::ann(mo);
  const DseOutcome out = ann.run(ctx.space(), ctx.sim(), 17);
  EXPECT_FALSE(out.selected.empty());
  const double adrs = ctx.adrsOf(out.selected);
  EXPECT_TRUE(std::isfinite(adrs));
}

}  // namespace
}  // namespace cmmfo::baselines
