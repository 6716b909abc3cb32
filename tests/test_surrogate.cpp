#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

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

// ---- one objective: the Eq. (5) chain against the AR(1) chain ----------
//
// The classic NARGP benchmark pair (Perdikaris et al. 2017):
//   f_lo(x) = sin(8 pi x),  f_hi(x) = (x - sqrt(2)) * f_lo(x)^2.
// The high fidelity is a NON-LINEAR transform of the low one, which the
// linear AR(1) chain (FPL18) cannot capture but the non-linear chain can.
double nargpLo(double x) { return std::sin(8.0 * std::numbers::pi * x); }
double nargpHi(double x) {
  return (x - std::sqrt(2.0)) * nargpLo(x) * nargpLo(x);
}

/// n evenly spaced samples of f on [0, 1], one objective.
FidelityObs sample1d(double (*f)(double), int n) {
  FidelityObs o;
  o.y = linalg::Matrix(n, 1);
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / (n - 1);
    o.x.push_back({x});
    o.y(i, 0) = f(x);
  }
  return o;
}

/// RMSE of the top level against `truth` on 20 points between the samples.
double rmseTop1d(const MultiFidelitySurrogate& s, double (*truth)(double)) {
  double se = 0.0;
  int n = 0;
  for (double x = 0.025; x < 1.0; x += 0.05, ++n) {
    const double e = s.predict(s.numLevels() - 1, {x}).mean[0] - truth(x);
    se += e * e;
  }
  return std::sqrt(se / n);
}

MultiFidelitySurrogate fit1d(MfKind mf, const std::vector<FidelityObs>& obs) {
  SurrogateOptions o;
  o.mf = mf;
  o.obj = ObjModelKind::kIndependent;
  MultiFidelitySurrogate s(1, 1, obs.size(), o);
  rng::Rng rng(6);
  s.fit(obs, rng);
  return s;
}

TEST(Surrogate, NonlinearBeatsLinearOnNonlinearMap) {
  // The paper's argument for Eq. (5) over FPL18.
  const std::vector<FidelityObs> obs = {sample1d(nargpLo, 41),
                                        sample1d(nargpHi, 15)};
  const double nonlinear = rmseTop1d(fit1d(MfKind::kNonlinear, obs), nargpHi);
  const double linear = rmseTop1d(fit1d(MfKind::kLinear, obs), nargpHi);
  EXPECT_LT(nonlinear, linear);
}

TEST(Surrogate, NonlinearLearnsNargpMapFromScarceHighData) {
  const std::vector<FidelityObs> obs = {sample1d(nargpLo, 41),
                                        sample1d(nargpHi, 15)};
  EXPECT_LT(rmseTop1d(fit1d(MfKind::kNonlinear, obs), nargpHi), 0.12);
}

TEST(Surrogate, NonlinearBeatsSingleFidelityOnNargpPair) {
  const std::vector<FidelityObs> obs = {sample1d(nargpLo, 41),
                                        sample1d(nargpHi, 15)};
  EXPECT_LT(rmseTop1d(fit1d(MfKind::kNonlinear, obs), nargpHi),
            rmseTop1d(fit1d(MfKind::kSingleFidelity, obs), nargpHi));
}

double nargpTop(double x) { return 2.0 * nargpHi(x) + 0.3; }

TEST(Surrogate, NonlinearChainsThreeLevels) {
  // Level 2 is a linear transform of level 1, which is non-linear in level
  // 0. The level-2 inputs avoid multiples of 1/8, the zeros of sin(8 pi x),
  // where the targets would all be the constant 0.3.
  std::vector<FidelityObs> obs = {sample1d(nargpLo, 31),
                                  sample1d(nargpHi, 15), FidelityObs{}};
  obs[2].y = linalg::Matrix(9, 1);
  for (int i = 0; i < 9; ++i) {
    const double x = (i + 0.45) / 9.0;
    obs[2].x.push_back({x});
    obs[2].y(i, 0) = nargpTop(x);
  }
  EXPECT_LT(rmseTop1d(fit1d(MfKind::kNonlinear, obs), nargpTop), 0.25);
}

double arLo(double x) { return std::sin(5.0 * x); }
double arHi(double x) { return 3.0 * std::sin(5.0 * x) + 1.0; }

TEST(Surrogate, LinearRecoversLinearScale) {
  // f_hi = 3 f_lo + 1 is exactly the AR(1) family.
  const MultiFidelitySurrogate s =
      fit1d(MfKind::kLinear, {sample1d(arLo, 25), sample1d(arHi, 9)});
  EXPECT_LT(rmseTop1d(s, arHi), 0.25);
}

double square(double x) { return x * x; }

TEST(Surrogate, LinearLowestLevelIsPlainGp) {
  // Level 0 of the AR(1) chain is a plain GP on the low-fidelity data.
  const MultiFidelitySurrogate s =
      fit1d(MfKind::kLinear, {sample1d(square, 12), sample1d(square, 6)});
  EXPECT_NEAR(s.predict(0, {0.5}).mean[0], 0.25, 0.05);
}

}  // namespace
}  // namespace cmmfo::core
