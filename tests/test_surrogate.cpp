#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <string>

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

// ---- per-level diagnostics, pinned bit for bit ----------------------------

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every per-level reduction the surrogate exposes, as raw bits: per level
/// the log marginal likelihood, MLE iterations and budget, log10 Gram
/// condition and lower-fidelity relevance; then the committed base counts,
/// an FNV-1a hash over every hyperState() entry's bits, and the recovery
/// events drained so far (action length, level, value).
std::vector<std::uint64_t> levelDiagnostics(MultiFidelitySurrogate& s) {
  std::vector<std::uint64_t> out;
  for (std::size_t l = 0; l < s.numLevels(); ++l) {
    out.push_back(bitsOf(s.logMarginalLikelihood(l)));
    out.push_back(static_cast<std::uint64_t>(s.lastFitIterations(l)));
    out.push_back(static_cast<std::uint64_t>(s.mleIterBudget(l)));
    out.push_back(bitsOf(s.gramConditionLog10(l)));
    out.push_back(bitsOf(s.lowerFidelityRelevance(l)));
  }
  for (std::size_t b : s.committedBaseCounts()) out.push_back(b);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& model : s.hyperState())
    for (double v : model) h = (h ^ bitsOf(v)) * 0x100000001b3ULL;
  out.push_back(h);
  for (const RecoveryEvent& e : s.drainRecoveryEvents()) {
    out.push_back(e.action.size());
    out.push_back(static_cast<std::uint64_t>(e.level));
    out.push_back(bitsOf(e.value));
  }
  return out;
}

std::string hexList(const std::vector<std::uint64_t>& v) {
  std::string s;
  char buf[32];
  for (std::uint64_t x : v) {
    std::snprintf(buf, sizeof buf, "0x%016llxULL,\n",
                  static_cast<unsigned long long>(x));
    s += buf;
  }
  return s;
}

/// The reductions of one variant through fit, a speculative append rolled
/// back by a commit, a hyperState round trip into a fresh surrogate, and a
/// near-singular hyperparameter setting whose commit forces dense refits.
std::vector<std::uint64_t> diagnosticsTrail(ObjModelKind obj) {
  rng::Rng rng(11);
  std::vector<FidelityObs> obs = makeObs(12, 8, 5, rng);
  MultiFidelitySurrogate s(2, 2, 3, fastOpts(MfKind::kNonlinear, obj));
  s.fit(obs, rng);
  std::vector<std::uint64_t> trail = levelDiagnostics(s);

  // Two fantasy points on levels 0 and 1, then a commit of one real point:
  // the fantasies are truncated away (levelPoints, updateLevelRows).
  std::vector<FidelityObs> grown = obs;
  for (std::size_t l = 0; l < 2; ++l) {
    grown[l].x.push_back({0.31, 0.72});
    linalg::Matrix y(grown[l].x.size(), 2);
    for (std::size_t i = 0; i + 1 < grown[l].x.size(); ++i)
      for (std::size_t mm = 0; mm < 2; ++mm) y(i, mm) = obs[l].y(i, mm);
    y(y.rows() - 1, 0) = 0.4;
    y(y.rows() - 1, 1) = -0.7;
    grown[l].y = y;
  }
  s.appendObservations(grown, /*commit=*/false);
  std::vector<FidelityObs> committed = obs;
  committed[0] = grown[0];
  s.appendObservations(committed, /*commit=*/true);
  const gp::MultiPosterior top = s.predict(2, {0.5, 0.25});
  trail.push_back(bitsOf(top.mean[0]));
  trail.push_back(bitsOf(top.cov(1, 1)));
  for (std::uint64_t v : levelDiagnostics(s)) trail.push_back(v);

  // setHyperState + restorePosterior rebuild the same posterior.
  MultiFidelitySurrogate r(2, 2, 3, fastOpts(MfKind::kNonlinear, obj));
  r.setHyperState(s.hyperState());
  r.restorePosterior(committed, s.committedBaseCounts());
  const gp::MultiPosterior top_r = r.predict(2, {0.5, 0.25});
  trail.push_back(bitsOf(top_r.mean[0]));
  trail.push_back(bitsOf(top_r.cov(1, 1)));

  // Lengthscales far past the data's spread make every kernel value 1 and a
  // large output scale over the noise floor leaves the Gram near-singular.
  std::vector<std::vector<double>> hyper = s.hyperState();
  const std::size_t tail = obj == ObjModelKind::kCorrelated ? 5 : 2;
  for (auto& p : hyper) {
    const std::size_t dim = p.size() - tail;
    for (std::size_t d = 0; d < dim; ++d) p[d] = 30.0;
    p[dim] = 7.0;
    if (obj == ObjModelKind::kCorrelated) {
      p[dim + 1] = 0.0;
      p[dim + 2] = 7.0;
    }
    for (std::size_t k = tail - (obj == ObjModelKind::kCorrelated ? 2 : 1);
         k < tail; ++k)
      p[dim + k] = -20.0;
  }
  s.setHyperState(hyper);
  s.fit(committed, rng, /*optimize_hypers=*/false);
  s.appendObservations(grown, /*commit=*/true);
  for (std::uint64_t v : levelDiagnostics(s)) trail.push_back(v);
  return trail;
}

TEST(Surrogate, LevelDiagnosticsPinned) {
  const std::vector<std::uint64_t> correlated = {
      0x404999b1aa293220ULL, 0x000000000000005aULL, 0x000000000000005aULL,
      0x40209c1bf1a0b81dULL, 0x7ff8000000000000ULL, 0x3ffc5a6f492e3bc0ULL,
      0x000000000000005aULL, 0x000000000000005aULL, 0x40050d7f71d2f228ULL,
      0x3fefffffff22faa8ULL, 0x4001dffb7c5182e8ULL, 0x000000000000005aULL,
      0x000000000000005aULL, 0x4011a28c09425e3dULL, 0x3feffff890feecf9ULL,
      0x000000000000000cULL, 0x0000000000000008ULL, 0x0000000000000005ULL,
      0x80c91a257978c7a8ULL, 0x3ff6ed82e3f90480ULL, 0x3edb515e7795e40bULL,
      0xc0d0b9b042b90c80ULL, 0x000000000000005aULL, 0x000000000000005aULL,
      0x402111721f2662faULL, 0x7ff8000000000000ULL, 0xc043d83a92a991deULL,
      0x000000000000005aULL, 0x000000000000005aULL, 0x4004c725a527ed45ULL,
      0x3fefffffff22faa8ULL, 0xc09e1602867a4109ULL, 0x000000000000005aULL,
      0x000000000000005aULL, 0x400c1b1351cb5e4eULL, 0x3feffff890feecf9ULL,
      0x000000000000000cULL, 0x0000000000000008ULL, 0x0000000000000005ULL,
      0x80c91a257978c7a8ULL, 0x3ff6ed82e3f90480ULL, 0x3edb515e7795e40bULL,
      0xc1d3837532c36c2fULL, 0x000000000000005aULL, 0x000000000000005aULL,
      0x402c14a2a05db359ULL, 0x7ff8000000000000ULL, 0xc1cb9ceb42dec771ULL,
      0x000000000000005aULL, 0x000000000000005aULL, 0x402c0d543d98979fULL,
      0x3fe0000000000000ULL, 0xc1bd6b0908af018fULL, 0x000000000000005aULL,
      0x000000000000005aULL, 0x402bf11828e77fa4ULL, 0x3fe0000000000000ULL,
      0x000000000000000dULL, 0x0000000000000009ULL, 0x0000000000000005ULL,
      0x85ff583433a2e9b1ULL, 0x000000000000000bULL, 0x0000000000000000ULL,
      0x402c14a2a05db359ULL, 0x000000000000000bULL, 0x0000000000000001ULL,
      0x402c0d543d98979fULL, 0x000000000000000bULL, 0x0000000000000002ULL,
      0x402bf11828e77fa4ULL,
  };
  const std::vector<std::uint64_t> independent = {
      0x403fd612e6c17b51ULL, 0x00000000000000beULL, 0x00000000000000f0ULL,
      0x4025f0650c22c750ULL, 0x7ff8000000000000ULL, 0x4025823dde38e48dULL,
      0x00000000000000bcULL, 0x00000000000000f0ULL, 0x4018ba132b19e7c0ULL,
      0x3fefbaed0ced0da6ULL, 0x4001627f1d391106ULL, 0x00000000000000bcULL,
      0x00000000000000f0ULL, 0x401f28dbd8c9963eULL, 0x3fefffffffea6dc6ULL,
      0x000000000000000cULL, 0x000000000000000cULL, 0x0000000000000008ULL,
      0x0000000000000008ULL, 0x0000000000000005ULL, 0x0000000000000005ULL,
      0xbd80c72a4712a430ULL, 0x3ffadc2ac22c7a86ULL, 0x3ed42a5259e75a4eULL,
      0xc14fe12bed94f3baULL, 0x00000000000000beULL, 0x00000000000000f0ULL,
      0x4025f0650c22c750ULL, 0x7ff8000000000000ULL, 0xc0bb1ab34718a406ULL,
      0x00000000000000bcULL, 0x00000000000000f0ULL, 0x4011f1511366e31cULL,
      0x3fefbaed0ced0da6ULL, 0xc04c3a5603615d1aULL, 0x00000000000000bcULL,
      0x00000000000000f0ULL, 0x4010b0f413030f88ULL, 0x3fefffffffea6dc6ULL,
      0x000000000000000cULL, 0x000000000000000cULL, 0x0000000000000008ULL,
      0x0000000000000008ULL, 0x0000000000000005ULL, 0x0000000000000005ULL,
      0xbd80c72a4712a430ULL, 0x3ffadc2ac22c7a86ULL, 0x3ed42a5259e75a4eULL,
      0xc1d382a19007b348ULL, 0x00000000000000beULL, 0x00000000000000f0ULL,
      0x402c1498ab1379bcULL, 0x7ff8000000000000ULL, 0xc1caaca03c1f8c16ULL,
      0x00000000000000bcULL, 0x00000000000000f0ULL, 0x402c0c5b9a793791ULL,
      0x3fe0000000000000ULL, 0xc1bd56a4f23b1b33ULL, 0x00000000000000bcULL,
      0x00000000000000f0ULL, 0x402bf66bc6e95414ULL, 0x3fe0000000000000ULL,
      0x000000000000000dULL, 0x000000000000000dULL, 0x0000000000000009ULL,
      0x0000000000000009ULL, 0x0000000000000005ULL, 0x0000000000000005ULL,
      0x25d3bdfea26d5465ULL, 0x000000000000000bULL, 0x0000000000000000ULL,
      0x402c1498ab1379bcULL, 0x000000000000000bULL, 0x0000000000000001ULL,
      0x402c0c5b9a793791ULL, 0x000000000000000bULL, 0x0000000000000002ULL,
      0x402bf66bc6e95414ULL,
  };
  const std::vector<std::uint64_t> got_c =
      diagnosticsTrail(ObjModelKind::kCorrelated);
  EXPECT_EQ(got_c, correlated) << hexList(got_c);
  const std::vector<std::uint64_t> got_i =
      diagnosticsTrail(ObjModelKind::kIndependent);
  EXPECT_EQ(got_i, independent) << hexList(got_i);
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
