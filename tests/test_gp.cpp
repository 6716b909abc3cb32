#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "gp/kernel.h"
#include "gp/gp_regressor.h"
#include "rng/rng.h"

namespace cmmfo::gp {
namespace {

GpFitOptions fastOpts() {
  GpFitOptions o;
  o.mle_restarts = 1;
  o.max_mle_iters = 40;
  return o;
}

bool sameBits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GpRegressor, InterpolatesNoiseFreeData) {
  rng::Rng rng(1);
  Matern52Ard proto(1);
  GpRegressor gp(proto, fastOpts());

  Dataset x;
  Vec y;
  for (double v = 0.0; v <= 1.0; v += 0.2) {
    x.push_back({v});
    y.push_back(std::sin(4.0 * v));
  }
  gp.fit(x, y, rng);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(gp.predict(x[i]).mean, y[i], 0.05);
}

TEST(GpRegressor, UncertaintyGrowsAwayFromData) {
  rng::Rng rng(2);
  GpRegressor gp(Matern52Ard(1), fastOpts());
  gp.fit({{0.0}, {0.2}, {0.4}}, {0.1, 0.5, 0.3}, rng);
  const double var_near = gp.predict({0.2}).var;
  const double var_far = gp.predict({3.0}).var;
  EXPECT_GT(var_far, var_near);
}

TEST(GpRegressor, PredictsReasonablyOnSmoothFunction) {
  rng::Rng rng(3);
  GpRegressor gp(Matern52Ard(1), fastOpts());
  Dataset x;
  Vec y;
  for (int i = 0; i <= 20; ++i) {
    const double v = i / 20.0;
    x.push_back({v});
    y.push_back(v * v + 0.5 * v);
  }
  gp.fit(x, y, rng);
  EXPECT_NEAR(gp.predict({0.33}).mean, 0.33 * 0.33 + 0.5 * 0.33, 0.02);
  EXPECT_NEAR(gp.predict({0.77}).mean, 0.77 * 0.77 + 0.5 * 0.77, 0.02);
}

TEST(GpRegressor, MleImprovesLikelihoodOverDefaults) {
  rng::Rng rng(4);
  Matern52Ard proto(1);
  proto.setLengthscale(0, 10.0);  // deliberately bad initial lengthscale

  Dataset x;
  Vec y;
  for (int i = 0; i < 15; ++i) {
    const double v = i / 15.0;
    x.push_back({v});
    y.push_back(std::sin(12.0 * v));
  }

  GpFitOptions no_opt = fastOpts();
  GpRegressor fixed(proto, no_opt);
  fixed.refitPosterior(x, y);  // posterior at the bad defaults
  const double lml_default = fixed.logMarginalLikelihood();

  GpRegressor fitted(proto, fastOpts());
  fitted.fit(x, y, rng);
  EXPECT_GT(fitted.logMarginalLikelihood(), lml_default);
}

TEST(GpRegressor, PredictionsInOriginalUnits) {
  rng::Rng rng(5);
  GpRegressor gp(Matern52Ard(1), fastOpts());
  // Targets with large offset and scale: standardization must be invisible.
  gp.fit({{0.0}, {0.5}, {1.0}}, {1000.0, 1500.0, 2000.0}, rng);
  EXPECT_NEAR(gp.predict({0.5}).mean, 1500.0, 50.0);
}

TEST(GpRegressor, VarianceIsNonNegativeEverywhere) {
  rng::Rng rng(6);
  GpRegressor gp(Matern52Ard(2), fastOpts());
  Dataset x;
  Vec y;
  for (int i = 0; i < 10; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(rng.normal());
  }
  gp.fit(x, y, rng);
  for (int i = 0; i < 50; ++i)
    EXPECT_GE(gp.predict({rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0)}).var,
              0.0);
}

TEST(GpRegressor, HandlesDuplicateInputs) {
  rng::Rng rng(7);
  GpRegressor gp(Matern52Ard(1), fastOpts());
  // Identical inputs with different targets — only noise can explain this;
  // the fit must survive (jitter + noise floor) and average the targets.
  gp.fit({{0.5}, {0.5}, {0.5}, {0.1}}, {1.0, 2.0, 3.0, 0.0}, rng);
  EXPECT_NEAR(gp.predict({0.5}).mean, 2.0, 0.75);
}

TEST(GpRegressor, CopySemantics) {
  rng::Rng rng(8);
  GpRegressor gp(Matern52Ard(1), fastOpts());
  gp.fit({{0.0}, {1.0}}, {0.0, 1.0}, rng);
  GpRegressor copy = gp;
  EXPECT_DOUBLE_EQ(copy.predict({0.4}).mean, gp.predict({0.4}).mean);
  // Refitting the copy must not disturb the original.
  copy.refitPosterior({{0.0}, {1.0}}, {5.0, 6.0});
  EXPECT_NE(copy.predict({0.4}).mean, gp.predict({0.4}).mean);
}

TEST(GpRegressor, BatchPredictMatchesScalar) {
  rng::Rng rng(9);
  GpRegressor gp(Matern52Ard(1), fastOpts());
  gp.fit({{0.0}, {0.3}, {0.9}}, {1.0, -1.0, 0.5}, rng);
  const Dataset q = {{0.1}, {0.5}};
  const auto batch = gp.predictBatch(q);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch[0].mean, gp.predict(q[0]).mean);
  EXPECT_DOUBLE_EQ(batch[1].var, gp.predict(q[1]).var);
}

TEST(GpRegressor, NoiseFloorRespected) {
  rng::Rng rng(10);
  GpRegressor gp(Matern52Ard(1), fastOpts());
  gp.fit({{0.0}, {0.5}, {1.0}}, {0.0, 1.0, 0.0}, rng);
  EXPECT_GE(gp.noiseStddev(), kMinNoise * 0.999);
}

TEST(GpRegressor, SinglePointFit) {
  rng::Rng rng(11);
  GpRegressor gp(Matern52Ard(1), fastOpts());
  gp.fit({{0.5}}, {3.0}, rng);
  // With one observation, the posterior mean at that point is the target.
  EXPECT_NEAR(gp.predict({0.5}).mean, 3.0, 1e-3);
}

TEST(GpRegressor, ConcurrentFitsMatchSoloFits) {
  // Two threads fit different GPs at once, so their MLE starts share the
  // fork-join pool; each fit must still equal its solo fit bit for bit.
  struct Fit {
    Vec packed;
    Vec lml;
    int iters = 0;
  };
  const auto fitOne = [](std::uint64_t seed) {
    rng::Rng rng(seed);
    Dataset x;
    Vec y;
    for (int i = 0; i < 14; ++i) {
      x.push_back({rng.uniform(), rng.uniform()});
      y.push_back(std::sin(4.0 * x.back()[0]) + x.back()[1] * x.back()[1] +
                  0.05 * rng.normal());
    }
    GpRegressor gp(Matern52Ard(2), fastOpts());
    gp.fit(x, y, rng);
    return Fit{gp.packedParams(), {gp.logMarginalLikelihood()},
               gp.lastFitIterations()};
  };
  const Fit solo_a = fitOne(11), solo_b = fitOne(12);
  Fit a, b;
  std::thread ta([&] { a = fitOne(11); });
  std::thread tb([&] { b = fitOne(12); });
  ta.join();
  tb.join();
  EXPECT_TRUE(sameBits(a.packed, solo_a.packed));
  EXPECT_TRUE(sameBits(a.lml, solo_a.lml));
  EXPECT_EQ(a.iters, solo_a.iters);
  EXPECT_TRUE(sameBits(b.packed, solo_b.packed));
  EXPECT_TRUE(sameBits(b.lml, solo_b.lml));
  EXPECT_EQ(b.iters, solo_b.iters);
  EXPECT_FALSE(sameBits(a.packed, b.packed));
}

TEST(GpRegressor, LmlObjectiveFinishesGradientFromKeptValueCall) {
  // A value call followed by a gradient call at the same point must equal
  // one full evaluation bit for bit; a gradient request anywhere else must
  // recompute instead of finishing from the kept state.
  rng::Rng rng(13);
  Dataset x;
  Vec y;
  for (int i = 0; i < 14; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(std::sin(4.0 * x.back()[0]) + 0.05 * rng.normal());
  }
  GpRegressor gp(Matern52Ard(2), fastOpts());
  gp.refitPosterior(x, y);
  Vec p = gp.packedParams(), q = p;
  for (auto& v : p) v += rng.uniform(-0.4, 0.4);
  for (auto& v : q) v += rng.uniform(-0.4, 0.4);
  q.back() = std::log(1e-6);  // below the noise clamp
  Vec gp_ref, gq_ref;
  const Vec vp_ref = {gp.evalNegLogMarginalLikelihood(p, &gp_ref)};
  const Vec vq_ref = {gp.evalNegLogMarginalLikelihood(q, &gq_ref)};
  ASSERT_FALSE(sameBits(gp_ref, gq_ref));

  const opt::GradObjectiveFn f = gp.lmlObjective();
  Vec g;
  EXPECT_TRUE(sameBits({f(p, nullptr)}, vp_ref));
  EXPECT_TRUE(sameBits({f(p, &g)}, vp_ref));
  EXPECT_TRUE(sameBits(g, gp_ref));
  EXPECT_TRUE(sameBits({f(p, &g)}, vp_ref));  // asked twice
  EXPECT_TRUE(sameBits(g, gp_ref));
  EXPECT_TRUE(sameBits({f(q, &g)}, vq_ref));  // kept p, asked at q
  EXPECT_TRUE(sameBits(g, gq_ref));
  EXPECT_TRUE(sameBits({f(p, nullptr)}, vp_ref));
  EXPECT_TRUE(sameBits({f(q, nullptr)}, vq_ref));
  EXPECT_TRUE(sameBits({f(p, &g)}, vp_ref));  // kept q, asked at p
  EXPECT_TRUE(sameBits(g, gp_ref));
}

}  // namespace
}  // namespace cmmfo::gp
