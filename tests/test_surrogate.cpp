#include <gtest/gtest.h>

#include <cmath>

#include "core/surrogate.h"
#include "rng/rng.h"

namespace cmmfo::core {
namespace {

/// Synthetic 3-fidelity, 2-objective problem over 2-D inputs with
/// correlated objectives and a non-linear fidelity map:
///   f0_m(x): base objectives; f1 = f0^2 * sign + x-dependent shift;
///   f2 = f1 + small refinement.
double base0(const std::vector<double>& x) {
  return std::sin(3.0 * x[0]) + 0.5 * x[1];
}
double base1(const std::vector<double>& x) {
  return -2.0 * base0(x) + 0.1 * x[1];  // negatively correlated with f0
}

std::vector<FidelityObs> makeObs(int n0, int n1, int n2, rng::Rng& rng) {
  std::vector<FidelityObs> obs(3);
  auto fill = [&](FidelityObs& o, int n, int level) {
    o.y = linalg::Matrix(n, 2);
    for (int i = 0; i < n; ++i) {
      const std::vector<double> x = {rng.uniform(), rng.uniform()};
      o.x.push_back(x);
      double y0 = base0(x), y1 = base1(x);
      if (level >= 1) {
        y0 = y0 * y0 + 0.2 * x[0];  // non-linear cross-fidelity map
        y1 = y1 * 0.8 - 0.1;
      }
      if (level >= 2) {
        y0 += 0.05 * x[1];
        y1 += 0.05;
      }
      o.y(i, 0) = y0;
      o.y(i, 1) = y1;
    }
  };
  fill(obs[0], n0, 0);
  fill(obs[1], n1, 1);
  fill(obs[2], n2, 2);
  return obs;
}

SurrogateOptions fastOpts(MfKind mf, ObjModelKind obj) {
  SurrogateOptions o;
  o.mf = mf;
  o.obj = obj;
  o.mtgp.mle_restarts = 0;
  o.mtgp.max_mle_iters = 30;
  o.gp.mle_restarts = 0;
  o.gp.max_mle_iters = 30;
  return o;
}

class SurrogateVariants
    : public ::testing::TestWithParam<std::pair<MfKind, ObjModelKind>> {};

TEST_P(SurrogateVariants, FitPredictShapesAndPsd) {
  rng::Rng rng(1);
  auto obs = makeObs(20, 10, 6, rng);
  MultiFidelitySurrogate s(2, 2, 3, fastOpts(GetParam().first, GetParam().second));
  s.fit(obs, rng);
  EXPECT_TRUE(s.fitted());
  for (std::size_t level = 0; level < 3; ++level) {
    const gp::MultiPosterior p = s.predict(level, {0.4, 0.6});
    ASSERT_EQ(p.mean.size(), 2u);
    ASSERT_EQ(p.cov.rows(), 2u);
    EXPECT_GE(p.cov(0, 0), 0.0);
    EXPECT_GE(p.cov(1, 1), 0.0);
    EXPECT_TRUE(std::isfinite(p.mean[0]));
    EXPECT_TRUE(std::isfinite(p.mean[1]));
  }
}

TEST_P(SurrogateVariants, TopLevelGeneralizes) {
  rng::Rng rng(2);
  auto obs = makeObs(25, 14, 8, rng);
  MultiFidelitySurrogate s(2, 2, 3, fastOpts(GetParam().first, GetParam().second));
  s.fit(obs, rng);
  // Mean error at the top level should be bounded on held-out points.
  double se = 0.0;
  int n = 0;
  rng::Rng qrng(99);
  for (int i = 0; i < 20; ++i, ++n) {
    const std::vector<double> x = {qrng.uniform(), qrng.uniform()};
    double y0 = base0(x);
    y0 = y0 * y0 + 0.2 * x[0] + 0.05 * x[1];
    const double err = s.predict(2, x).mean[0] - y0;
    se += err * err;
  }
  EXPECT_LT(std::sqrt(se / n), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SurrogateVariants,
    ::testing::Values(
        std::make_pair(MfKind::kNonlinear, ObjModelKind::kCorrelated),
        std::make_pair(MfKind::kNonlinear, ObjModelKind::kIndependent),
        std::make_pair(MfKind::kLinear, ObjModelKind::kIndependent),
        std::make_pair(MfKind::kLinear, ObjModelKind::kCorrelated),
        std::make_pair(MfKind::kSingleFidelity, ObjModelKind::kCorrelated)));

TEST(Surrogate, CorrelatedLearnsNegativeCorrelation) {
  rng::Rng rng(3);
  auto obs = makeObs(25, 12, 6, rng);
  MultiFidelitySurrogate s(
      2, 2, 3, fastOpts(MfKind::kNonlinear, ObjModelKind::kCorrelated));
  s.fit(obs, rng);
  // Level 0 objectives are y1 = -2 y0 + eps: strong negative correlation.
  EXPECT_LT(s.taskCorrelation(0)(0, 1), -0.5);
}

TEST(Surrogate, IndependentVariantHasDiagonalCov) {
  rng::Rng rng(4);
  auto obs = makeObs(15, 8, 5, rng);
  MultiFidelitySurrogate s(
      2, 2, 3, fastOpts(MfKind::kNonlinear, ObjModelKind::kIndependent));
  s.fit(obs, rng);
  const gp::MultiPosterior p = s.predict(1, {0.3, 0.3});
  EXPECT_DOUBLE_EQ(p.cov(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p.cov(1, 0), 0.0);
}

TEST(Surrogate, NonlinearBeatsSingleFidelityWithScarceTopData) {
  rng::Rng rng1(5), rng2(5);
  auto obs = makeObs(30, 15, 5, rng1);

  MultiFidelitySurrogate chained(
      2, 2, 3, fastOpts(MfKind::kNonlinear, ObjModelKind::kIndependent));
  chained.fit(obs, rng2);
  rng::Rng rng3(5);
  MultiFidelitySurrogate single(
      2, 2, 3, fastOpts(MfKind::kSingleFidelity, ObjModelKind::kIndependent));
  single.fit(obs, rng3);

  auto rmseTop = [&](const MultiFidelitySurrogate& s) {
    rng::Rng qrng(123);
    double se = 0.0;
    for (int i = 0; i < 30; ++i) {
      const std::vector<double> x = {qrng.uniform(), qrng.uniform()};
      double y0 = base0(x);
      y0 = y0 * y0 + 0.2 * x[0] + 0.05 * x[1];
      const double err = s.predict(2, x).mean[0] - y0;
      se += err * err;
    }
    return std::sqrt(se / 30.0);
  };
  EXPECT_LT(rmseTop(chained), rmseTop(single) * 1.05);
}

TEST(Surrogate, RefitWithoutHypersIsCheapAndConsistent) {
  rng::Rng rng(6);
  auto obs = makeObs(15, 8, 4, rng);
  MultiFidelitySurrogate s(
      2, 2, 3, fastOpts(MfKind::kNonlinear, ObjModelKind::kCorrelated));
  s.fit(obs, rng);
  const double before = s.predict(2, {0.5, 0.5}).mean[0];
  // Refit with identical data and frozen hypers: prediction unchanged.
  s.fit(obs, rng, /*optimize_hypers=*/false);
  EXPECT_NEAR(s.predict(2, {0.5, 0.5}).mean[0], before, 1e-9);
}

TEST(Surrogate, MleIterBudgetCountsEveryStartRun) {
  // A GpRegressor fit runs mle_restarts + 4 starts (prototype parameters, a
  // three-step lengthscale ladder, the restarts); a MultiTaskGp fit runs
  // mle_restarts + 3 (a two-step ladder). With one iteration per start,
  // every start runs out, and the fit must land exactly on its budget.
  for (const ObjModelKind obj :
       {ObjModelKind::kCorrelated, ObjModelKind::kIndependent}) {
    SurrogateOptions o = fastOpts(MfKind::kNonlinear, obj);
    o.mtgp.mle_restarts = o.gp.mle_restarts = 2;
    o.mtgp.max_mle_iters = o.gp.max_mle_iters = 1;
    rng::Rng rng(7);
    auto obs = makeObs(12, 8, 5, rng);
    MultiFidelitySurrogate s(2, 2, 3, o);
    s.fit(obs, rng);
    const long long starts =
        obj == ObjModelKind::kCorrelated ? 2 + 3 : (2 + 4) * 2;
    for (std::size_t l = 0; l < 3; ++l) {
      EXPECT_EQ(s.mleIterBudget(l), starts) << "level " << l;
      EXPECT_EQ(s.lastFitIterations(l), s.mleIterBudget(l)) << "level " << l;
    }
  }
}

}  // namespace
}  // namespace cmmfo::core
