// Mean-only prediction and single-solve point updates. The claims under
// test are exact (bit for bit):
//  - GpRegressor / MultiTaskGp predictMean(x) is predict(x).mean on dense
//    fits, after rank-appends (bordered rows for the MTGP) and after
//    truncation;
//  - MultiFidelitySurrogate::predictMean(level, x) is
//    predict(level, x).mean at every level of every chaining and objective
//    model, predictMeans(level, x) holds predictMean(l, x) for every l up to
//    level, and predictBatch(level, x) without the level below's posteriors
//    equals the call handed them;
//  - updatePoints(keep, x, y), which solves the targets once, leaves the
//    same posterior as truncateToPoints(keep) and appendObservation calls
//    that each solve them.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/surrogate.h"
#include "gp/gp_regressor.h"
#include "gp/kernel.h"
#include "gp/multitask_gp.h"
#include "linalg/matrix.h"
#include "rng/rng.h"

namespace cmmfo {
namespace {

using linalg::Matrix;

std::uint64_t bitsOf(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

gp::Dataset randomInputs(std::size_t n, std::size_t d, rng::Rng& rng) {
  gp::Dataset x;
  x.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gp::Vec xi(d);
    for (std::size_t k = 0; k < d; ++k) xi[k] = rng.uniform();
    x.push_back(std::move(xi));
  }
  return x;
}

double target(const gp::Vec& x, std::size_t task) {
  const double base = std::sin(4.0 * x[0]) + 0.7 * x[1] * x[1];
  switch (task) {
    case 0: return base;
    case 1: return -1.5 * base + 0.3 * x[0];
    default: return base * base - 0.4 * x[1];
  }
}

Matrix targets(const gp::Dataset& x, std::size_t m) {
  Matrix y(x.size(), m);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t mm = 0; mm < m; ++mm) y(i, mm) = target(x[i], mm);
  return y;
}

Matrix rowsOf(const Matrix& y, std::size_t from, std::size_t to) {
  Matrix out(to - from, y.cols());
  for (std::size_t i = from; i < to; ++i)
    for (std::size_t mm = 0; mm < y.cols(); ++mm) out(i - from, mm) = y(i, mm);
  return out;
}

gp::GpRegressor fittedGp(const gp::Dataset& x, const gp::Vec& y,
                         std::size_t n) {
  gp::GpFitOptions fo;
  fo.mle_restarts = 0;
  fo.max_mle_iters = 25;
  gp::GpRegressor model(gp::Matern52Ard(2, false), fo);
  rng::Rng fit_rng(3);
  model.fit(gp::Dataset(x.begin(), x.begin() + n),
            gp::Vec(y.begin(), y.begin() + n), fit_rng);
  return model;
}

gp::MultiTaskGp fittedMtgp(const gp::Dataset& x, const Matrix& y,
                           std::size_t n) {
  gp::MultiTaskFitOptions fo;
  fo.mle_restarts = 0;
  fo.max_mle_iters = 25;
  gp::MultiTaskGp model(gp::Matern52Ard(2, true), y.cols(), fo);
  rng::Rng fit_rng(5);
  model.fit(gp::Dataset(x.begin(), x.begin() + n), rowsOf(y, 0, n), fit_rng);
  return model;
}

void expectGpMeans(const gp::GpRegressor& model, const gp::Dataset& probes,
                   const char* when) {
  for (const gp::Vec& p : probes)
    EXPECT_EQ(bitsOf(model.predictMean(p)), bitsOf(model.predict(p).mean))
        << when;
}

void expectMtgpMeans(const gp::MultiTaskGp& model, const gp::Dataset& probes,
                     const char* when) {
  for (const gp::Vec& p : probes) {
    const gp::Vec mean = model.predictMean(p);
    const gp::MultiPosterior post = model.predict(p);
    ASSERT_EQ(mean.size(), post.mean.size());
    for (std::size_t mm = 0; mm < mean.size(); ++mm)
      EXPECT_EQ(bitsOf(mean[mm]), bitsOf(post.mean[mm])) << when << " " << mm;
  }
}

// Both models agree at every probe bit for bit, means and (co)variances.
void expectSameGp(const gp::GpRegressor& a, const gp::GpRegressor& b,
                  const gp::Dataset& probes, const char* when) {
  EXPECT_EQ(bitsOf(a.logMarginalLikelihood()),
            bitsOf(b.logMarginalLikelihood()))
      << when;
  EXPECT_EQ(a.numData(), b.numData()) << when;
  EXPECT_EQ(a.denseBasePoints(), b.denseBasePoints()) << when;
  for (const gp::Vec& p : probes) {
    const gp::Posterior pa = a.predict(p), pb = b.predict(p);
    EXPECT_EQ(bitsOf(pa.mean), bitsOf(pb.mean)) << when;
    EXPECT_EQ(bitsOf(pa.var), bitsOf(pb.var)) << when;
  }
}

void expectSameMtgp(const gp::MultiTaskGp& a, const gp::MultiTaskGp& b,
                    const gp::Dataset& probes, const char* when) {
  EXPECT_EQ(bitsOf(a.logMarginalLikelihood()),
            bitsOf(b.logMarginalLikelihood()))
      << when;
  EXPECT_EQ(a.numData(), b.numData()) << when;
  EXPECT_EQ(a.denseBasePoints(), b.denseBasePoints()) << when;
  for (const gp::Vec& p : probes) {
    const gp::MultiPosterior pa = a.predict(p), pb = b.predict(p);
    for (std::size_t mm = 0; mm < pa.mean.size(); ++mm) {
      EXPECT_EQ(bitsOf(pa.mean[mm]), bitsOf(pb.mean[mm])) << when;
      for (std::size_t mp = 0; mp < pa.mean.size(); ++mp)
        EXPECT_EQ(bitsOf(pa.cov(mm, mp)), bitsOf(pb.cov(mm, mp))) << when;
    }
  }
}

TEST(GpRegressorMean, EqualsPredictOnDenseAppendedAndTruncatedFits) {
  rng::Rng rng(21);
  const gp::Dataset x = randomInputs(22, 2, rng);
  gp::Vec y;
  for (const auto& xi : x) y.push_back(target(xi, 0));
  gp::GpRegressor model = fittedGp(x, y, 15);
  gp::Dataset probes = randomInputs(9, 2, rng);
  probes.push_back(x[0]);
  probes.push_back(x[14]);

  expectGpMeans(model, probes, "dense");
  for (std::size_t i = 15; i < x.size(); ++i)
    ASSERT_TRUE(model.appendObservation(x[i], y[i]));
  expectGpMeans(model, probes, "appended");
  model.truncateToPoints(18);
  expectGpMeans(model, probes, "truncated");
}

TEST(MultiTaskGpMean, EqualsPredictOnDenseAppendedAndTruncatedFits) {
  for (const std::size_t m : {std::size_t{2}, std::size_t{3}}) {
    rng::Rng rng(22);
    const gp::Dataset x = randomInputs(18, 2, rng);
    const Matrix y = targets(x, m);
    gp::MultiTaskGp model = fittedMtgp(x, y, 12);
    gp::Dataset probes = randomInputs(7, 2, rng);
    probes.push_back(x[3]);

    expectMtgpMeans(model, probes, "dense");
    // Bordered rank-appends: the factor rows leave task-major order.
    for (std::size_t i = 12; i < x.size(); ++i) {
      gp::Vec row(m);
      for (std::size_t mm = 0; mm < m; ++mm) row[mm] = y(i, mm);
      ASSERT_TRUE(model.appendObservation(x[i], row));
    }
    expectMtgpMeans(model, probes, "appended");
    model.truncateToPoints(14);
    expectMtgpMeans(model, probes, "truncated");
  }
}

// A commit's rollback followed by new appends, and k appends in a row, each
// solve the targets once; the posterior is the step-by-step one.
TEST(GpRegressorUpdate, SingleSolveMatchesStepByStepUpdates) {
  rng::Rng rng(23);
  const gp::Dataset x = randomInputs(26, 2, rng);
  gp::Vec y;
  for (const auto& xi : x) y.push_back(target(xi, 0));
  const gp::Dataset probes = randomInputs(8, 2, rng);

  gp::GpRegressor eager = fittedGp(x, y, 14);
  gp::GpRegressor lazy = eager;
  // Speculation: three appends on top of the committed 14 points.
  for (std::size_t i = 14; i < 17; ++i) eager.appendObservation(x[i], y[i]);
  ASSERT_TRUE(lazy.updatePoints(
      14, gp::Dataset(x.begin() + 14, x.begin() + 17),
      gp::Vec(y.begin() + 14, y.begin() + 17)));
  expectSameGp(eager, lazy, probes, "appends");

  // Commit: roll the speculation back and append the real rows.
  eager.truncateToPoints(14);
  for (std::size_t i = 17; i < 22; ++i) eager.appendObservation(x[i], y[i]);
  ASSERT_TRUE(lazy.updatePoints(
      14, gp::Dataset(x.begin() + 17, x.begin() + 22),
      gp::Vec(y.begin() + 17, y.begin() + 22)));
  expectSameGp(eager, lazy, probes, "truncate + appends");

  // A rollback alone, and an empty update.
  eager.truncateToPoints(16);
  lazy.updatePoints(16, {}, {});
  expectSameGp(eager, lazy, probes, "truncate");
  lazy.updatePoints(lazy.numData(), {}, {});
  expectSameGp(eager, lazy, probes, "no-op");

  // Appends of a jitter-free factor equal a dense refit of the same rows:
  // the committed 14, then x[17] and x[18].
  gp::Dataset rows_x(x.begin(), x.begin() + 14);
  gp::Vec rows_y(y.begin(), y.begin() + 14);
  for (std::size_t i = 17; i < 19; ++i) {
    rows_x.push_back(x[i]);
    rows_y.push_back(y[i]);
  }
  gp::GpRegressor dense = eager;
  dense.refitPosterior(rows_x, rows_y);
  for (const gp::Vec& p : probes) {
    EXPECT_EQ(bitsOf(dense.predict(p).mean), bitsOf(lazy.predict(p).mean));
    EXPECT_EQ(bitsOf(dense.predict(p).var), bitsOf(lazy.predict(p).var));
  }
}

TEST(MultiTaskGpUpdate, SingleSolveMatchesStepByStepUpdates) {
  rng::Rng rng(24);
  const gp::Dataset x = randomInputs(22, 2, rng);
  const Matrix y = targets(x, 3);
  const gp::Dataset probes = randomInputs(6, 2, rng);
  const auto appendRows = [&](gp::MultiTaskGp& model, std::size_t from,
                              std::size_t to) {
    for (std::size_t i = from; i < to; ++i)
      model.appendObservation(x[i], {y(i, 0), y(i, 1), y(i, 2)});
  };

  gp::MultiTaskGp eager = fittedMtgp(x, y, 12);
  gp::MultiTaskGp lazy = eager;
  appendRows(eager, 12, 15);
  ASSERT_TRUE(lazy.updatePoints(
      12, gp::Dataset(x.begin() + 12, x.begin() + 15), rowsOf(y, 12, 15)));
  expectSameMtgp(eager, lazy, probes, "appends");

  eager.truncateToPoints(12);
  appendRows(eager, 15, 20);
  ASSERT_TRUE(lazy.updatePoints(
      12, gp::Dataset(x.begin() + 15, x.begin() + 20), rowsOf(y, 15, 20)));
  expectSameMtgp(eager, lazy, probes, "truncate + appends");

  eager.truncateToPoints(13);
  lazy.updatePoints(13, {}, Matrix(0, 3));
  expectSameMtgp(eager, lazy, probes, "truncate");
}

}  // namespace
}  // namespace cmmfo

namespace cmmfo::core {
namespace {

std::vector<FidelityObs> chainObs(const std::array<int, 3>& n,
                                  rng::Rng& rng) {
  std::vector<FidelityObs> obs(3);
  for (int level = 0; level < 3; ++level) {
    FidelityObs& o = obs[level];
    o.y = linalg::Matrix(n[level], 3);
    for (int i = 0; i < n[level]; ++i) {
      const gp::Vec x = {rng.uniform(), rng.uniform()};
      o.x.push_back(x);
      for (std::size_t mm = 0; mm < 3; ++mm) {
        double v = target(x, mm);
        if (level >= 1) v = 0.8 * v * v + 0.2 * x[0];
        if (level >= 2) v += 0.05 * x[1];
        o.y(i, mm) = v;
      }
    }
  }
  return obs;
}

SurrogateOptions fastSurrogate(MfKind mf, ObjModelKind obj) {
  SurrogateOptions o;
  o.mf = mf;
  o.obj = obj;
  o.mtgp.mle_restarts = 0;
  o.mtgp.max_mle_iters = 20;
  o.gp.mle_restarts = 0;
  o.gp.max_mle_iters = 20;
  return o;
}

constexpr std::array<MfKind, 3> kChains = {
    MfKind::kNonlinear, MfKind::kLinear, MfKind::kSingleFidelity};
constexpr std::array<ObjModelKind, 2> kObjModels = {
    ObjModelKind::kCorrelated, ObjModelKind::kIndependent};

void expectChainMeans(const MultiFidelitySurrogate& s,
                      const gp::Dataset& probes, const char* when) {
  for (std::size_t l = 0; l < s.numLevels(); ++l)
    for (const gp::Vec& p : probes) {
      const gp::Vec mean = s.predictMean(l, p);
      const gp::MultiPosterior post = s.predict(l, p);
      ASSERT_EQ(mean.size(), post.mean.size());
      for (std::size_t mm = 0; mm < mean.size(); ++mm)
        EXPECT_EQ(bitsOf(mean[mm]), bitsOf(post.mean[mm]))
            << when << " level " << l << " objective " << mm;
    }
}

// Fits a surrogate of every chaining and objective model, runs
// check(s, probes, "fitted"), commits appends at every level (rank-appends
// where the chain allows them, dense refits above a changed level
// elsewhere) and runs check(s, probes, "appended").
template <class Check>
void forEveryChainFittedAndAppended(Check check) {
  for (const MfKind mf : kChains)
    for (const ObjModelKind obj : kObjModels) {
      SCOPED_TRACE(::testing::Message() << "mf " << static_cast<int>(mf)
                                        << " obj " << static_cast<int>(obj));
      rng::Rng rng(25);
      const auto obs = chainObs({14, 8, 5}, rng);
      MultiFidelitySurrogate s(2, 3, 3, fastSurrogate(mf, obj));
      rng::Rng fit_rng(15);
      s.fit(obs, fit_rng);
      const gp::Dataset probes = randomInputs(6, 2, rng);
      check(s, probes, "fitted");

      const auto extra = chainObs({3, 2, 1}, rng);
      auto grown = obs;
      for (int l = 0; l < 3; ++l) {
        const std::size_t n = grown[l].x.size(), k = extra[l].x.size();
        linalg::Matrix y(n + k, 3);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t mm = 0; mm < 3; ++mm) y(i, mm) = grown[l].y(i, mm);
        for (std::size_t i = 0; i < k; ++i) {
          grown[l].x.push_back(extra[l].x[i]);
          for (std::size_t mm = 0; mm < 3; ++mm)
            y(n + i, mm) = extra[l].y(i, mm);
        }
        grown[l].y = std::move(y);
      }
      s.appendObservations(grown, /*commit=*/true);
      check(s, probes, "appended");
    }
}

TEST(SurrogateMean, EqualsPredictAtEveryLevelOfEveryChain) {
  forEveryChainFittedAndAppended(expectChainMeans);
}

// One walk of the chain up to level L yields every level's mean, each
// bit for bit the mean predictMean(l, x) walks to on its own.
TEST(SurrogateMean, OneWalkEqualsPerLevelPredictMean) {
  forEveryChainFittedAndAppended([](const MultiFidelitySurrogate& s,
                                    const gp::Dataset& probes,
                                    const char* when) {
    for (std::size_t top = 0; top < s.numLevels(); ++top)
      for (const gp::Vec& p : probes) {
        const std::vector<gp::Vec> means = s.predictMeans(top, p);
        ASSERT_EQ(means.size(), top + 1);
        for (std::size_t l = 0; l <= top; ++l) {
          const gp::Vec mean = s.predictMean(l, p);
          ASSERT_EQ(means[l].size(), mean.size());
          for (std::size_t mm = 0; mm < mean.size(); ++mm)
            EXPECT_EQ(bitsOf(means[l][mm]), bitsOf(mean[mm]))
                << when << " walk to " << top << " level " << l
                << " objective " << mm;
        }
      }
  });
}

// A believer pick scans one fidelity without the level below's posteriors:
// the non-linear chain then reads the lower levels through their means
// alone, the AR(1) chain predicts them in full. Either way the result is
// the one a scan handed the lower posteriors gets. 130 candidates span
// more than one parallel block.
TEST(SurrogateMean, PredictBatchWithoutLowerEqualsHandedLower) {
  for (const MfKind mf : kChains)
    for (const ObjModelKind obj : kObjModels) {
      SCOPED_TRACE(::testing::Message() << "mf " << static_cast<int>(mf)
                                        << " obj " << static_cast<int>(obj));
      rng::Rng rng(26);
      const auto obs = chainObs({14, 8, 5}, rng);
      MultiFidelitySurrogate s(2, 3, 3, fastSurrogate(mf, obj));
      rng::Rng fit_rng(16);
      s.fit(obs, fit_rng);
      const gp::Dataset cand = randomInputs(130, 2, rng);
      std::vector<gp::MultiPosterior> lower = s.predictBatch(0, cand);
      for (std::size_t l = 1; l < 3; ++l) {
        const auto handed = s.predictBatch(l, cand, &lower);
        const auto alone = s.predictBatch(l, cand);
        ASSERT_EQ(handed.size(), cand.size());
        ASSERT_EQ(alone.size(), cand.size());
        for (std::size_t c = 0; c < cand.size(); ++c)
          for (std::size_t mm = 0; mm < 3; ++mm) {
            EXPECT_EQ(bitsOf(alone[c].mean[mm]), bitsOf(handed[c].mean[mm]))
                << "level " << l << " candidate " << c;
            for (std::size_t mp = 0; mp < 3; ++mp)
              EXPECT_EQ(bitsOf(alone[c].cov(mm, mp)),
                        bitsOf(handed[c].cov(mm, mp)))
                  << "level " << l << " candidate " << c;
          }
        lower = handed;
      }
    }
}

}  // namespace
}  // namespace cmmfo::core
