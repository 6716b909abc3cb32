// Regression tests pinned to bugs found during development — each of these
// failed before its fix and guards against reintroduction.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "gp/ard_kernels.h"
#include "gp/gp_regressor.h"
#include "rng/rng.h"

namespace cmmfo::gp {
namespace {

TEST(GpRegression, HighFrequencyTargetDoesNotCollapseToNoise) {
  // Bug: with a unit initial lengthscale, MLE converged to the
  // "everything is noise" optimum on sin(8 pi x) and predicted the constant
  // mean everywhere. Fixed by median-distance initialization plus the
  // multi-resolution lengthscale ladder of starts.
  rng::Rng rng(1);
  Dataset x;
  Vec y;
  for (int i = 0; i < 41; ++i) {
    const double v = i / 40.0;
    x.push_back({v});
    y.push_back(std::sin(8.0 * std::numbers::pi * v));
  }
  GpFitOptions opts;
  opts.mle_restarts = 1;
  opts.max_mle_iters = 50;
  opts.init_noise = 1e-2;
  GpRegressor gp(Matern52Ard(1), opts);
  gp.fit(x, y, rng);

  double se = 0.0;
  int n = 0;
  for (double v = 0.0125; v < 1.0; v += 0.025, ++n) {
    const double e = gp.predict({v}).mean - std::sin(8.0 * std::numbers::pi * v);
    se += e * e;
  }
  // Constant-mean collapse gives RMSE ~0.707; a real fit is far below 0.2.
  EXPECT_LT(std::sqrt(se / n), 0.2);
}

TEST(GpRegression, NoiseCannotRunToInfinity) {
  // Bug: an unbounded log-noise parameter walked to ~1e82 during a bad line
  // search. The fit must keep noise within the configured ceiling.
  rng::Rng rng(2);
  Dataset x;
  Vec y;
  for (int i = 0; i < 12; ++i) {
    x.push_back({i / 11.0, rng.uniform()});
    y.push_back(rng.normal());  // pure noise target
  }
  GpFitOptions opts;
  opts.max_noise = 4.0;
  GpRegressor gp(Matern52Ard(2), opts);
  gp.fit(x, y, rng);
  EXPECT_LE(gp.noiseStddev(), 4.0 * 1.001);
}

TEST(KernelInit, MedianDistanceHeuristic) {
  Matern52Ard k(1);
  Dataset x;
  for (int i = 0; i < 21; ++i) x.push_back({i * 0.05});  // spacing 0.05
  k.initFromData(x);
  // Median pairwise distance of a uniform grid on [0,1] is ~1/3.
  EXPECT_GT(k.lengthscale(0), 0.1);
  EXPECT_LT(k.lengthscale(0), 0.7);
}

TEST(KernelInit, PerDimension) {
  Matern52Ard k(2);
  Dataset x;
  for (int i = 0; i < 16; ++i) x.push_back({i / 15.0, i / 1500.0});
  k.initFromData(x);
  EXPECT_GT(k.lengthscale(0), k.lengthscale(1) * 10.0);
}

TEST(KernelInit, FlooredForConstantDimension) {
  Matern52Ard k(1);
  Dataset x(10, Vec{0.5});  // zero spread
  const double before = k.lengthscale(0);
  k.initFromData(x);
  EXPECT_DOUBLE_EQ(k.lengthscale(0), before);  // no non-zero distance: keep
}

TEST(KernelScale, LengthscaleLadder) {
  Matern52Ard k(3);
  k.setLengthscale(0, 1.0);
  k.setLengthscale(1, 2.0);
  k.setLengthscale(2, 0.5);
  k.scaleLengthscales(0.25);
  EXPECT_NEAR(k.lengthscale(0), 0.25, 1e-12);
  EXPECT_NEAR(k.lengthscale(1), 0.5, 1e-12);
  EXPECT_NEAR(k.lengthscale(2), 0.125, 1e-12);
}

}  // namespace
}  // namespace cmmfo::gp
