#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "gp/kernel.h"
#include "gp/gp_regressor.h"
#include "gp/multitask_gp.h"
#include "linalg/cholesky.h"
#include "rng/rng.h"

namespace cmmfo::gp {
namespace {

MultiTaskFitOptions fastOpts() {
  MultiTaskFitOptions o;
  o.mle_restarts = 0;
  o.max_mle_iters = 40;
  return o;
}

/// Two strongly correlated tasks: f2 = -2 f1 + small wiggle.
void makeCorrelatedData(std::size_t n, rng::Rng& rng, Dataset& x,
                        linalg::Matrix& y, double corr_sign = -1.0) {
  x.clear();
  y = linalg::Matrix(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.uniform();
    x.push_back({v});
    const double f = std::sin(5.0 * v);
    y(i, 0) = f + 0.02 * rng.normal();
    y(i, 1) = corr_sign * 2.0 * f + 0.02 * rng.normal();
  }
}

TEST(MultiTaskGp, FitsAndPredictsShapes) {
  rng::Rng rng(1);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(12, rng, x, y);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.fit(x, y, rng);
  const MultiPosterior p = gp.predict({0.5});
  EXPECT_EQ(p.mean.size(), 2u);
  EXPECT_EQ(p.cov.rows(), 2u);
  EXPECT_GE(p.cov(0, 0), 0.0);
  EXPECT_GE(p.cov(1, 1), 0.0);
}

TEST(MultiTaskGp, LearnsNegativeTaskCorrelation) {
  rng::Rng rng(2);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(20, rng, x, y, -1.0);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.fit(x, y, rng);
  const linalg::Matrix corr = gp.taskCorrelation();
  EXPECT_LT(corr(0, 1), -0.5);
  EXPECT_NEAR(corr(0, 0), 1.0, 1e-9);
}

TEST(MultiTaskGp, LearnsPositiveTaskCorrelation) {
  rng::Rng rng(3);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(20, rng, x, y, +1.0);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.fit(x, y, rng);
  EXPECT_GT(gp.taskCorrelation()(0, 1), 0.5);
}

TEST(MultiTaskGp, InterpolatesBothTasks) {
  rng::Rng rng(4);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(15, rng, x, y);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.fit(x, y, rng);
  for (std::size_t i = 0; i < x.size(); i += 3) {
    const MultiPosterior p = gp.predict(x[i]);
    EXPECT_NEAR(p.mean[0], y(i, 0), 0.15);
    EXPECT_NEAR(p.mean[1], y(i, 1), 0.3);
  }
}

TEST(MultiTaskGp, CorrelationTransfersAcrossTasks) {
  // Task 1 observed densely, task 2 tied to it: at a location where task 2
  // has no nearby data, the correlated model should still track -2 f1.
  // We emulate "missing" task-2 information by checking generalization at
  // held-out inputs.
  rng::Rng rng(5);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(25, rng, x, y, -1.0);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.fit(x, y, rng);
  const double v = 0.37;
  const double f = std::sin(5.0 * v);
  const MultiPosterior p = gp.predict({v});
  EXPECT_NEAR(p.mean[0], f, 0.15);
  EXPECT_NEAR(p.mean[1], -2.0 * f, 0.3);
}

TEST(MultiTaskGp, PredictiveCovariancePsd) {
  rng::Rng rng(6);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(10, rng, x, y);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.fit(x, y, rng);
  for (double v = -0.2; v <= 1.2; v += 0.1) {
    const MultiPosterior p = gp.predict({v});
    EXPECT_TRUE(
        linalg::Cholesky::factorizeWithJitter(p.cov, 1e-9).has_value())
        << "cov not PSD at " << v;
  }
}

TEST(MultiTaskGp, ThreeTasks) {
  rng::Rng rng(7);
  Dataset x;
  linalg::Matrix y(15, 3);
  for (std::size_t i = 0; i < 15; ++i) {
    const double v = rng.uniform();
    x.push_back({v});
    y(i, 0) = std::sin(4.0 * v);
    y(i, 1) = -std::sin(4.0 * v);
    y(i, 2) = std::cos(4.0 * v);
  }
  MultiTaskGp gp(Matern52Ard(1, true), 3, fastOpts());
  gp.fit(x, y, rng);
  const MultiPosterior p = gp.predict({0.4});
  EXPECT_EQ(p.mean.size(), 3u);
  EXPECT_NEAR(p.mean[0], -p.mean[1], 0.15);
}

TEST(MultiTaskGp, RefitPosteriorKeepsHyperparameters) {
  rng::Rng rng(8);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(12, rng, x, y);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.fit(x, y, rng);
  const double before = gp.predict({0.5}).mean[0];

  // Appending a point and refitting only the posterior must incorporate it.
  Dataset x2 = x;
  x2.push_back({0.5});
  linalg::Matrix y2(y.rows() + 1, 2);
  for (std::size_t i = 0; i < y.rows(); ++i)
    for (std::size_t m = 0; m < 2; ++m) y2(i, m) = y(i, m);
  y2(y.rows(), 0) = 10.0;  // surprising observation
  y2(y.rows(), 1) = -20.0;
  gp.refitPosterior(x2, y2);
  EXPECT_NE(gp.predict({0.5}).mean[0], before);
  EXPECT_GT(gp.predict({0.5}).mean[0], before);  // pulled toward 10
}

TEST(MultiTaskGp, MatchesSingleGpWhenTasksUnrelated) {
  // Independent tasks: the MTGP should not be (much) worse than separate
  // GPs at predicting each.
  rng::Rng rng(9);
  Dataset x;
  linalg::Matrix y(18, 2);
  for (std::size_t i = 0; i < 18; ++i) {
    const double v = i / 18.0;
    x.push_back({v});
    y(i, 0) = std::sin(6.0 * v);
    y(i, 1) = std::exp(v);  // structurally unrelated
  }
  MultiTaskGp mt(Matern52Ard(1, true), 2, fastOpts());
  mt.fit(x, y, rng);

  GpFitOptions gopts;
  gopts.mle_restarts = 1;
  GpRegressor g0(Matern52Ard(1), gopts);
  g0.fit(x, y.col(0), rng);

  const double v = 0.42;
  EXPECT_NEAR(mt.predict({v}).mean[0], g0.predict({v}).mean, 0.12);
}

TEST(MultiTaskGp, CopySemantics) {
  rng::Rng rng(10);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(10, rng, x, y);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.fit(x, y, rng);
  const MultiTaskGp copy = gp;
  EXPECT_DOUBLE_EQ(copy.predict({0.3}).mean[1], gp.predict({0.3}).mean[1]);
}

TEST(MultiTaskGp, ConcurrentFitsMatchSoloFits) {
  // Two threads fit different multi-task GPs at once, so their MLE starts
  // share the fork-join pool; each must still equal its solo fit bitwise.
  struct Fit {
    Vec packed;
    double lml = 0.0;
    int iters = 0;
  };
  const auto fitOne = [](std::uint64_t seed, double corr_sign) {
    rng::Rng rng(seed);
    Dataset x;
    linalg::Matrix y;
    makeCorrelatedData(12, rng, x, y, corr_sign);
    MultiTaskFitOptions opts = fastOpts();
    opts.mle_restarts = 2;
    MultiTaskGp gp(Matern52Ard(1, true), 2, opts);
    gp.fit(x, y, rng);
    return Fit{gp.packedParams(), gp.logMarginalLikelihood(),
               gp.lastFitIterations()};
  };
  const auto same = [](const Fit& p, const Fit& q) {
    return p.packed.size() == q.packed.size() &&
           std::memcmp(p.packed.data(), q.packed.data(),
                       p.packed.size() * sizeof(double)) == 0 &&
           std::memcmp(&p.lml, &q.lml, sizeof p.lml) == 0 &&
           p.iters == q.iters;
  };
  const Fit solo_a = fitOne(21, -1.0), solo_b = fitOne(22, 1.0);
  Fit a, b;
  std::thread ta([&] { a = fitOne(21, -1.0); });
  std::thread tb([&] { b = fitOne(22, 1.0); });
  ta.join();
  tb.join();
  EXPECT_TRUE(same(a, solo_a));
  EXPECT_TRUE(same(b, solo_b));
  EXPECT_FALSE(same(a, b));
}

TEST(MultiTaskGp, LmlObjectiveFinishesGradientFromKeptValueCall) {
  // As for GpRegressor: value then gradient at one point equals one full
  // evaluation bit for bit, and a gradient request elsewhere recomputes.
  rng::Rng rng(23);
  Dataset x;
  linalg::Matrix y;
  makeCorrelatedData(12, rng, x, y);
  MultiTaskGp gp(Matern52Ard(1, true), 2, fastOpts());
  gp.refitPosterior(x, y);
  Vec p = gp.packedParams(), q = p;
  for (auto& v : p) v += rng.uniform(-0.4, 0.4);
  for (auto& v : q) v += rng.uniform(-0.4, 0.4);
  q.back() = std::log(8.0);  // above the noise clamp
  const auto same = [](const Vec& a, const Vec& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  Vec gp_ref, gq_ref;
  const Vec vp_ref = {gp.evalNegLogMarginalLikelihood(p, &gp_ref)};
  const Vec vq_ref = {gp.evalNegLogMarginalLikelihood(q, &gq_ref)};
  ASSERT_FALSE(same(gp_ref, gq_ref));

  const opt::GradObjectiveFn f = gp.lmlObjective();
  Vec g;
  EXPECT_TRUE(same({f(p, nullptr)}, vp_ref));
  EXPECT_TRUE(same({f(p, &g)}, vp_ref));
  EXPECT_TRUE(same(g, gp_ref));
  EXPECT_TRUE(same({f(p, &g)}, vp_ref));  // asked twice
  EXPECT_TRUE(same(g, gp_ref));
  EXPECT_TRUE(same({f(q, &g)}, vq_ref));  // kept p, asked at q
  EXPECT_TRUE(same(g, gq_ref));
  EXPECT_TRUE(same({f(p, nullptr)}, vp_ref));
  EXPECT_TRUE(same({f(q, nullptr)}, vq_ref));
  EXPECT_TRUE(same({f(p, &g)}, vp_ref));  // kept q, asked at p
  EXPECT_TRUE(same(g, gp_ref));
}

}  // namespace
}  // namespace cmmfo::gp
