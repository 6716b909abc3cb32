// Incremental posterior math core: rank-append Cholesky updates, batched
// multi-RHS solve paths, and the shared PosteriorState across every GP
// layer. The claims under test are exact:
//  - appendRow / truncateTo round-trip bit-identically with a dense
//    refactorization (jitter-free factors);
//  - multi-RHS solves are bit-equal per column to the per-vector solves;
//  - GpRegressor::appendObservation is bit-identical to a dense
//    refitPosterior on the extended data; MultiTaskGp agrees to tight
//    roundoff (the multi-task append uses a bordered row ordering, a
//    symmetric permutation of the task-major stacked Gram);
//  - every predictBatch is bit-identical per candidate to scalar predict;
//  - the surrogate's speculative append + commit rollback leaves the
//    committed posterior bit-identical to never having speculated, and
//    restorePosterior(base counts) reproduces the incremental factors.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/surrogate.h"
#include "gp/kernel.h"
#include "gp/gp_regressor.h"
#include "gp/multitask_gp.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "rng/rng.h"

namespace cmmfo {
namespace {

using linalg::Cholesky;
using linalg::Matrix;

Matrix randomSpd(std::size_t n, rng::Rng& rng, double diag_boost) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  Matrix spd = a.matmul(a.transposed());
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += diag_boost;
  return spd;
}

// ------------------------------------------------------ linalg layer ----

TEST(CholeskyAppend, AppendRowBitwiseEqualsDenseRefactorization) {
  rng::Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.index(12);
    const Matrix big = randomSpd(n + 1, rng, 2.0 + static_cast<double>(n));
    Matrix lead(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) lead(i, j) = big(i, j);

    auto chol = Cholesky::factorize(lead);
    ASSERT_TRUE(chol.has_value());
    std::vector<double> cross(n);
    for (std::size_t i = 0; i < n; ++i) cross[i] = big(i, n);
    ASSERT_TRUE(chol->appendRow(cross, big(n, n)));

    const auto dense = Cholesky::factorize(big);
    ASSERT_TRUE(dense.has_value());
    ASSERT_EQ(chol->dim(), n + 1);
    for (std::size_t i = 0; i <= n; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        EXPECT_EQ(chol->lower()(i, j), dense->lower()(i, j))
            << "entry (" << i << "," << j << ") trial " << trial;
  }
}

TEST(CholeskyAppend, TruncateIsBitwiseInverseOfAppend) {
  rng::Rng rng(102);
  const std::size_t n = 9;
  const Matrix big = randomSpd(n + 3, rng, 6.0);
  Matrix lead(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) lead(i, j) = big(i, j);
  auto chol = Cholesky::factorize(lead);
  ASSERT_TRUE(chol.has_value());
  const Matrix before = chol->lower();

  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<double> cross(n + k);
    for (std::size_t i = 0; i < n + k; ++i) cross[i] = big(i, n + k);
    ASSERT_TRUE(chol->appendRow(cross, big(n + k, n + k)));
  }
  chol->truncateTo(n);
  ASSERT_EQ(chol->dim(), n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      EXPECT_EQ(chol->lower()(i, j), before(i, j));
}

TEST(CholeskyAppend, RefusesJitteredFactors) {
  // A singular matrix forces factorizeWithJitter to add jitter; appendRow
  // must refuse rather than grow a factor of a half-jittered matrix.
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  auto chol = Cholesky::factorizeWithJitter(a);
  ASSERT_TRUE(chol.has_value());
  ASSERT_GT(chol->jitterUsed(), 0.0);
  EXPECT_FALSE(chol->appendRow({0.1, 0.1}, 5.0));
  EXPECT_EQ(chol->dim(), 2u);
}

// Appended rows live in capacity-backed storage (the dense block, then a
// packed tail that grows by half): every reader must see the factor a dense
// factorization of the same leading block gives, bit for bit, whatever
// mix of appends, truncations, growths and copies produced it.
TEST(CholeskyAppend, CapacityGrowthIsBitwiseNeutral) {
  rng::Rng rng(104);
  const std::size_t big_n = 90;
  const Matrix big = randomSpd(big_n, rng, 30.0);
  const auto lead = [&big](std::size_t n) {
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = big(i, j);
    return a;
  };
  const auto append = [&big](Cholesky& c) {
    const std::size_t n = c.dim();
    std::vector<double> cross(n);
    for (std::size_t i = 0; i < n; ++i) cross[i] = big(i, n);
    return c.appendRow(cross, big(n, n));
  };
  Matrix rhs(big_n, 3);
  for (std::size_t i = 0; i < big_n; ++i)
    for (std::size_t c = 0; c < 3; ++c) rhs(i, c) = rng.uniform(-1.0, 1.0);
  const auto expectDenseBits = [&](const Cholesky& c, const char* what) {
    const std::size_t n = c.dim();
    if (n == 0) return;
    const auto dense = Cholesky::factorize(lead(n));
    ASSERT_TRUE(dense.has_value());
    const Matrix lc = c.lower(), ld = dense->lower();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(lc(i, j), ld(i, j)) << what << " n=" << n;
    Matrix b(n, 3);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < 3; ++k) b(i, k) = rhs(i, k);
    const Matrix xs = c.solve(b), xd = dense->solve(b);
    const Matrix ys = c.solveLower(b), yd = dense->solveLower(b);
    const std::vector<double> vs = c.solve(b.col(0));
    const std::vector<double> vd = dense->solve(b.col(0));
    const Matrix is = c.inverse(), id = dense->inverse();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        ASSERT_EQ(xs(i, k), xd(i, k)) << what << " n=" << n;
        ASSERT_EQ(ys(i, k), yd(i, k)) << what << " n=" << n;
      }
      ASSERT_EQ(vs[i], vd[i]) << what << " n=" << n;
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(is(i, j), id(i, j)) << what << " n=" << n;
    }
    ASSERT_EQ(c.logDet(), dense->logDet()) << what;
    ASSERT_EQ(c.conditionEstimate(), dense->conditionEstimate()) << what;
  };

  for (const std::size_t n0 : {std::size_t{3}, std::size_t{20}}) {
    auto c = Cholesky::factorize(lead(n0));
    ASSERT_TRUE(c.has_value());
    // Grow well past several capacity boundaries, checking as we go.
    while (c->dim() < 60) {
      ASSERT_TRUE(append(*c));
      expectDenseBits(*c, "grow");
    }
    // Random interleavings: truncate (into the dense block too, down to
    // empty), append again, and keep copies evolving alongside.
    for (int step = 0; step < 40; ++step) {
      if (rng.uniform() < 0.4) {
        c->truncateTo(rng.index(c->dim() + 1));
        expectDenseBits(*c, "truncate");
      } else {
        const std::size_t k = 1 + rng.index(12);
        for (std::size_t i = 0; i < k && c->dim() < big_n; ++i)
          ASSERT_TRUE(append(*c));
        expectDenseBits(*c, "append");
      }
      if (step % 10 == 9) {
        Cholesky copy = *c;
        if (copy.dim() < big_n) {
          ASSERT_TRUE(append(copy));
          expectDenseBits(copy, "copy");
        }
      }
    }
    // A dense refactorize into the grown storage is today's dense factor.
    ASSERT_TRUE(c->refactorize(lead(n0 + 7)));
    expectDenseBits(*c, "refactorize");
    ASSERT_TRUE(append(*c));
    expectDenseBits(*c, "append after refactorize");
  }
}

TEST(CholeskyMultiRhs, SolveMatchesPerVectorBitwise) {
  rng::Rng rng(103);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 2 + rng.index(14);
    const std::size_t k = 1 + rng.index(7);
    const auto chol = Cholesky::factorize(randomSpd(n, rng, 3.0));
    ASSERT_TRUE(chol.has_value());
    Matrix b(n, k);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < k; ++c) b(i, c) = rng.uniform(-2.0, 2.0);

    const Matrix x = chol->solve(b);
    const Matrix y = chol->solveLower(b);
    for (std::size_t c = 0; c < k; ++c) {
      const std::vector<double> xc = chol->solve(b.col(c));
      const std::vector<double> yc = chol->solveLower(b.col(c));
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(x(i, c), xc[i]);
        EXPECT_EQ(y(i, c), yc[i]);
      }
    }
  }
}

// -------------------------------------------------------- gp layer ----

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

double target0(const gp::Vec& x) {
  return std::sin(4.0 * x[0]) + 0.7 * x[1] * x[1];
}
double target1(const gp::Vec& x) {
  return -1.5 * target0(x) + 0.3 * x[0];
}

TEST(GpRegressorIncremental, AppendBitwiseEqualsDenseRefit) {
  rng::Rng rng(7);
  const gp::Dataset x = randomInputs(24, 2, rng);
  gp::Vec y;
  for (const auto& xi : x) y.push_back(target0(xi));

  gp::GpFitOptions fo;
  fo.mle_restarts = 0;
  fo.max_mle_iters = 25;
  gp::GpRegressor inc(gp::Matern52Ard(2, false), fo);
  rng::Rng fit_rng(3);
  inc.fit(gp::Dataset(x.begin(), x.begin() + 16),
          gp::Vec(y.begin(), y.begin() + 16), fit_rng);
  gp::GpRegressor dense = inc;

  const gp::Dataset probes = randomInputs(5, 2, rng);
  for (std::size_t i = 16; i < x.size(); ++i) {
    ASSERT_TRUE(inc.appendObservation(x[i], y[i]));
    dense.refitPosterior(gp::Dataset(x.begin(), x.begin() + i + 1),
                         gp::Vec(y.begin(), y.begin() + i + 1));
    EXPECT_EQ(inc.logMarginalLikelihood(), dense.logMarginalLikelihood());
    for (const auto& p : probes) {
      const gp::Posterior a = inc.predict(p);
      const gp::Posterior b = dense.predict(p);
      EXPECT_EQ(a.mean, b.mean);
      EXPECT_EQ(a.var, b.var);
    }
  }
  EXPECT_EQ(inc.denseBasePoints(), 16u);
}

TEST(GpRegressorIncremental, TruncateRollsBackAppendsBitwise) {
  rng::Rng rng(8);
  const gp::Dataset x = randomInputs(20, 2, rng);
  gp::Vec y;
  for (const auto& xi : x) y.push_back(target0(xi));

  gp::GpFitOptions fo;
  fo.mle_restarts = 0;
  fo.max_mle_iters = 25;
  gp::GpRegressor m(gp::Matern52Ard(2, false), fo);
  rng::Rng fit_rng(3);
  m.fit(gp::Dataset(x.begin(), x.begin() + 15),
        gp::Vec(y.begin(), y.begin() + 15), fit_rng);

  const gp::Vec probe = {0.3, 0.8};
  const gp::Posterior before = m.predict(probe);
  const double lml_before = m.logMarginalLikelihood();
  for (std::size_t i = 15; i < 20; ++i) m.appendObservation(x[i], y[i]);
  m.truncateToPoints(15);
  const gp::Posterior after = m.predict(probe);
  EXPECT_EQ(before.mean, after.mean);
  EXPECT_EQ(before.var, after.var);
  EXPECT_EQ(lml_before, m.logMarginalLikelihood());
}

TEST(GpRegressorIncremental, PredictBatchBitwiseEqualsScalar) {
  rng::Rng rng(9);
  const gp::Dataset x = randomInputs(18, 3, rng);
  gp::Vec y;
  for (const auto& xi : x) y.push_back(target0(xi));
  gp::GpFitOptions fo;
  fo.mle_restarts = 0;
  fo.max_mle_iters = 25;
  gp::GpRegressor m(gp::Matern52Ard(3, false), fo);
  rng::Rng fit_rng(4);
  m.fit(x, y, fit_rng);

  const gp::Dataset cand = randomInputs(31, 3, rng);
  const std::vector<gp::Posterior> batch = m.predictBatch(cand);
  ASSERT_EQ(batch.size(), cand.size());
  for (std::size_t c = 0; c < cand.size(); ++c) {
    const gp::Posterior p = m.predict(cand[c]);
    EXPECT_EQ(batch[c].mean, p.mean);
    EXPECT_EQ(batch[c].var, p.var);
  }
}

TEST(MultiTaskGpIncremental, AppendMatchesDenseRefitToRoundoff) {
  rng::Rng rng(11);
  const gp::Dataset x = randomInputs(18, 2, rng);
  Matrix y(x.size(), 2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    y(i, 0) = target0(x[i]);
    y(i, 1) = target1(x[i]);
  }

  gp::MultiTaskFitOptions fo;
  fo.mle_restarts = 0;
  fo.max_mle_iters = 25;
  gp::MultiTaskGp inc(gp::Matern52Ard(2, true), 2, fo);
  rng::Rng fit_rng(5);
  Matrix y12(12, 2);
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t mm = 0; mm < 2; ++mm) y12(i, mm) = y(i, mm);
  inc.fit(gp::Dataset(x.begin(), x.begin() + 12), y12, fit_rng);
  gp::MultiTaskGp dense = inc;

  const gp::Dataset probes = randomInputs(4, 2, rng);
  for (std::size_t i = 12; i < x.size(); ++i) {
    ASSERT_TRUE(inc.appendObservation(x[i], {y(i, 0), y(i, 1)}));
    Matrix yi(i + 1, 2);
    for (std::size_t r = 0; r <= i; ++r)
      for (std::size_t mm = 0; mm < 2; ++mm) yi(r, mm) = y(r, mm);
    dense.refitPosterior(gp::Dataset(x.begin(), x.begin() + i + 1), yi);

    // The bordered row ordering is a symmetric permutation of the dense
    // task-major Gram: posteriors agree to roundoff, not bit-for-bit.
    EXPECT_NEAR(inc.logMarginalLikelihood(), dense.logMarginalLikelihood(),
                1e-8);
    for (const auto& p : probes) {
      const gp::MultiPosterior a = inc.predict(p);
      const gp::MultiPosterior b = dense.predict(p);
      for (std::size_t mm = 0; mm < 2; ++mm) {
        EXPECT_NEAR(a.mean[mm], b.mean[mm], 1e-8);
        for (std::size_t mp = 0; mp < 2; ++mp)
          EXPECT_NEAR(a.cov(mm, mp), b.cov(mm, mp), 1e-8);
      }
    }
  }
  EXPECT_EQ(inc.denseBasePoints(), 12u);
}

TEST(MultiTaskGpIncremental, TruncateRollsBackAppendsBitwise) {
  rng::Rng rng(12);
  const gp::Dataset x = randomInputs(16, 2, rng);
  Matrix y(x.size(), 2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    y(i, 0) = target0(x[i]);
    y(i, 1) = target1(x[i]);
  }
  gp::MultiTaskFitOptions fo;
  fo.mle_restarts = 0;
  fo.max_mle_iters = 25;
  gp::MultiTaskGp m(gp::Matern52Ard(2, true), 2, fo);
  rng::Rng fit_rng(6);
  Matrix y12(12, 2);
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t mm = 0; mm < 2; ++mm) y12(i, mm) = y(i, mm);
  m.fit(gp::Dataset(x.begin(), x.begin() + 12), y12, fit_rng);

  const gp::Vec probe = {0.4, 0.1};
  const gp::MultiPosterior before = m.predict(probe);
  for (std::size_t i = 12; i < 16; ++i)
    m.appendObservation(x[i], {y(i, 0), y(i, 1)});
  m.truncateToPoints(12);
  const gp::MultiPosterior after = m.predict(probe);
  for (std::size_t mm = 0; mm < 2; ++mm) {
    EXPECT_EQ(before.mean[mm], after.mean[mm]);
    for (std::size_t mp = 0; mp < 2; ++mp)
      EXPECT_EQ(before.cov(mm, mp), after.cov(mm, mp));
  }
}

TEST(MultiTaskGpIncremental, PredictBatchBitwiseEqualsScalar) {
  rng::Rng rng(13);
  const gp::Dataset x = randomInputs(14, 2, rng);
  Matrix y(x.size(), 2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    y(i, 0) = target0(x[i]);
    y(i, 1) = target1(x[i]);
  }
  gp::MultiTaskFitOptions fo;
  fo.mle_restarts = 0;
  fo.max_mle_iters = 25;
  gp::MultiTaskGp m(gp::Matern52Ard(2, true), 2, fo);
  rng::Rng fit_rng(7);
  m.fit(x, y, fit_rng);
  // Stack a couple of bordered append rows on top so the batch path is
  // exercised against a mixed-ordering factor too.
  m.appendObservation({0.15, 0.95}, {0.2, -0.4});
  m.appendObservation({0.85, 0.05}, {0.6, -1.0});

  const gp::Dataset cand = randomInputs(23, 2, rng);
  const std::vector<gp::MultiPosterior> batch = m.predictBatch(cand);
  ASSERT_EQ(batch.size(), cand.size());
  for (std::size_t c = 0; c < cand.size(); ++c) {
    const gp::MultiPosterior p = m.predict(cand[c]);
    for (std::size_t mm = 0; mm < 2; ++mm) {
      EXPECT_EQ(batch[c].mean[mm], p.mean[mm]);
      for (std::size_t mp = 0; mp < 2; ++mp)
        EXPECT_EQ(batch[c].cov(mm, mp), p.cov(mm, mp));
    }
  }
}

}  // namespace
}  // namespace cmmfo

// --------------------------------------------------- surrogate layer ----

namespace cmmfo::core {
namespace {

std::vector<FidelityObs> surrogateObs(int n0, int n1, int n2, rng::Rng& rng) {
  std::vector<FidelityObs> obs(3);
  auto fill = [&](FidelityObs& o, int n, int level) {
    o.y = linalg::Matrix(n, 2);
    for (int i = 0; i < n; ++i) {
      const std::vector<double> x = {rng.uniform(), rng.uniform()};
      o.x.push_back(x);
      double y0 = std::sin(3.0 * x[0]) + 0.5 * x[1];
      double y1 = -2.0 * y0 + 0.1 * x[1];
      if (level >= 1) {
        y0 = y0 * y0 + 0.2 * x[0];
        y1 = 0.8 * y1 - 0.1;
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

std::vector<FidelityObs> extendObs(const std::vector<FidelityObs>& obs,
                                   const std::vector<FidelityObs>& extra,
                                   const std::array<int, 3>& counts) {
  std::vector<FidelityObs> out(3);
  for (int l = 0; l < 3; ++l) {
    out[l] = obs[l];
    const std::size_t n = out[l].x.size();
    linalg::Matrix y(n + counts[l], 2);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t m = 0; m < 2; ++m) y(i, m) = out[l].y(i, m);
    for (int k = 0; k < counts[l]; ++k) {
      out[l].x.push_back(extra[l].x[k]);
      for (std::size_t m = 0; m < 2; ++m) y(n + k, m) = extra[l].y(k, m);
    }
    out[l].y = std::move(y);
  }
  return out;
}

SurrogateOptions fastSurrogate(MfKind mf, ObjModelKind obj) {
  SurrogateOptions o;
  o.mf = mf;
  o.obj = obj;
  o.mtgp.mle_restarts = 0;
  o.mtgp.max_mle_iters = 25;
  o.gp.mle_restarts = 0;
  o.gp.max_mle_iters = 25;
  return o;
}

class IncrementalSurrogate
    : public ::testing::TestWithParam<std::pair<MfKind, ObjModelKind>> {};

// Believer stacking that will only be read below `read_levels` skips the
// chained refits above it; the commit then refits those levels densely, so
// the committed posterior (factors, targets, hyperparameters) is bitwise
// the eager path's, and the levels that were read agree bitwise meanwhile.
TEST(SurrogateIncremental, UnreadLevelsSkipSpeculativeRefit) {
  for (const MfKind mf : {MfKind::kNonlinear, MfKind::kLinear})
    for (const ObjModelKind obj :
         {ObjModelKind::kCorrelated, ObjModelKind::kIndependent}) {
      rng::Rng rng(41);
      const auto obs = surrogateObs(14, 8, 5, rng);
      const auto extra = surrogateObs(3, 3, 3, rng);
      MultiFidelitySurrogate eager(2, 2, 3, fastSurrogate(mf, obj));
      rng::Rng fit_rng(14);
      eager.fit(obs, fit_rng);
      MultiFidelitySurrogate lazy = eager;
      const gp::Dataset probes = {{0.2, 0.7}, {0.45, 0.55}, {0.9, 0.1}};
      const auto expectSame = [&](std::size_t levels, const char* when) {
        for (std::size_t l = 0; l < levels; ++l)
          for (const gp::Vec& p : probes) {
            const gp::MultiPosterior a = eager.predict(l, p);
            const gp::MultiPosterior b = lazy.predict(l, p);
            for (std::size_t m = 0; m < 2; ++m) {
              EXPECT_EQ(a.mean[m], b.mean[m]) << when << " level " << l;
              for (std::size_t k = 0; k < 2; ++k)
                EXPECT_EQ(a.cov(m, k), b.cov(m, k)) << when << " level " << l;
            }
          }
      };

      for (const std::size_t read_levels : {std::size_t{1}, std::size_t{2}}) {
        // Two believer picks at the round's fidelity (read_levels - 1).
        const int f = static_cast<int>(read_levels) - 1;
        const std::array<int, 3> one = {1, f >= 1 ? 1 : 0, 0};
        const std::array<int, 3> two = {2, f >= 1 ? 2 : 0, 0};
        eager.appendObservations(extendObs(obs, extra, one), false);
        lazy.appendObservations(extendObs(obs, extra, one), false,
                                read_levels);
        eager.appendObservations(extendObs(obs, extra, two), false);
        lazy.appendObservations(extendObs(obs, extra, two), false,
                                read_levels);
        EXPECT_TRUE(lazy.hasSkippedLevels());
        EXPECT_FALSE(eager.hasSkippedLevels());
        expectSame(read_levels, "speculating");

        // The round's real results commit (one new point per level).
        const auto committed = extendObs(obs, extra, {1, 1, 1});
        eager.appendObservations(committed, true);
        lazy.appendObservations(committed, true);
        EXPECT_FALSE(lazy.hasSkippedLevels());
        expectSame(3, "committed");
        EXPECT_EQ(lazy.committedBaseCounts(), eager.committedBaseCounts());
        EXPECT_EQ(lazy.hyperState(), eager.hyperState());
        for (std::size_t l = 0; l < 3; ++l) {
          EXPECT_EQ(lazy.logMarginalLikelihood(l),
                    eager.logMarginalLikelihood(l));
          EXPECT_EQ(lazy.gramConditionLog10(l), eager.gramConditionLog10(l));
        }
        // Roll back to the fitted data for the next read set.
        eager.fit(obs, fit_rng, false);
        lazy = eager;
      }
    }
}

// Committed appends must track a freshly fitted surrogate to roundoff, and
// batched prediction must stay bitwise equal to scalar prediction on the
// appended (mixed dense + bordered) posterior.
TEST_P(IncrementalSurrogate, CommittedAppendTracksDenseRefit) {
  rng::Rng rng(31);
  const auto obs = surrogateObs(18, 9, 5, rng);
  const auto extra = surrogateObs(3, 2, 1, rng);
  MultiFidelitySurrogate inc(2, 2, 3,
                             fastSurrogate(GetParam().first, GetParam().second));
  rng::Rng fit_rng(10);
  inc.fit(obs, fit_rng);
  MultiFidelitySurrogate dense = inc;

  const auto grown = extendObs(obs, extra, {3, 2, 1});
  inc.appendObservations(grown, /*commit=*/true);
  // The reference surrogate refits its posterior densely on the same data
  // with the same (untouched) hyperparameters.
  rng::Rng refit_rng(11);
  dense.fit(grown, refit_rng, /*optimize_hypers=*/false);

  for (std::size_t level = 0; level < 3; ++level) {
    gp::Dataset cand;
    for (int c = 0; c < 9; ++c) cand.push_back({rng.uniform(), rng.uniform()});
    const auto batch = inc.predictBatch(level, cand);
    ASSERT_EQ(batch.size(), cand.size());
    for (std::size_t c = 0; c < cand.size(); ++c) {
      const gp::MultiPosterior a = inc.predict(level, cand[c]);
      const gp::MultiPosterior b = dense.predict(level, cand[c]);
      for (std::size_t mm = 0; mm < 2; ++mm) {
        EXPECT_NEAR(a.mean[mm], b.mean[mm], 1e-8);
        EXPECT_NEAR(a.cov(mm, mm), b.cov(mm, mm), 1e-8);
        // Batched == scalar is exact.
        EXPECT_EQ(batch[c].mean[mm], a.mean[mm]);
        for (std::size_t mp = 0; mp < 2; ++mp)
          EXPECT_EQ(batch[c].cov(mm, mp), a.cov(mm, mp));
      }
    }
  }
}

// Kriging-believer speculation must leave no trace: speculate, then commit
// the original data; predictions must be bitwise identical to a surrogate
// that never speculated.
TEST_P(IncrementalSurrogate, SpeculationRollsBackBitwise) {
  rng::Rng rng(32);
  const auto obs = surrogateObs(16, 8, 4, rng);
  const auto extra = surrogateObs(2, 2, 2, rng);
  MultiFidelitySurrogate s(2, 2, 3,
                           fastSurrogate(GetParam().first, GetParam().second));
  rng::Rng fit_rng(12);
  s.fit(obs, fit_rng);

  const gp::Vec probe = {0.45, 0.55};
  std::vector<gp::MultiPosterior> before;
  for (std::size_t l = 0; l < 3; ++l) before.push_back(s.predict(l, probe));

  // Two speculative stacking steps (like two believer picks), then a commit
  // on the unchanged real data.
  s.appendObservations(extendObs(obs, extra, {1, 0, 0}), /*commit=*/false);
  s.appendObservations(extendObs(obs, extra, {2, 1, 0}), /*commit=*/false);
  s.appendObservations(obs, /*commit=*/true);

  for (std::size_t l = 0; l < 3; ++l) {
    const gp::MultiPosterior after = s.predict(l, probe);
    for (std::size_t mm = 0; mm < 2; ++mm) {
      EXPECT_EQ(before[l].mean[mm], after.mean[mm]) << "level " << l;
      for (std::size_t mp = 0; mp < 2; ++mp)
        EXPECT_EQ(before[l].cov(mm, mp), after.cov(mm, mp)) << "level " << l;
    }
  }
}

// restorePosterior(dense base + rank-appends) must reproduce the factors an
// uninterrupted run evolved incrementally — the checkpoint/resume contract.
TEST_P(IncrementalSurrogate, RestorePosteriorReproducesIncrementalState) {
  rng::Rng rng(33);
  const auto obs = surrogateObs(15, 8, 4, rng);
  const auto extra = surrogateObs(4, 2, 1, rng);
  MultiFidelitySurrogate live(2, 2, 3,
                              fastSurrogate(GetParam().first, GetParam().second));
  rng::Rng fit_rng(13);
  live.fit(obs, fit_rng);
  const auto grown = extendObs(obs, extra, {4, 2, 1});
  live.appendObservations(grown, /*commit=*/true);

  MultiFidelitySurrogate resumed(
      2, 2, 3, fastSurrogate(GetParam().first, GetParam().second));
  resumed.setHyperState(live.hyperState());
  resumed.restorePosterior(grown, live.committedBaseCounts());

  const gp::Dataset probes = {{0.2, 0.9}, {0.7, 0.3}, {0.5, 0.5}};
  for (std::size_t l = 0; l < 3; ++l)
    for (const auto& p : probes) {
      const gp::MultiPosterior a = live.predict(l, p);
      const gp::MultiPosterior b = resumed.predict(l, p);
      for (std::size_t mm = 0; mm < 2; ++mm) {
        EXPECT_EQ(a.mean[mm], b.mean[mm]) << "level " << l;
        for (std::size_t mp = 0; mp < 2; ++mp)
          EXPECT_EQ(a.cov(mm, mp), b.cov(mm, mp)) << "level " << l;
      }
    }
  EXPECT_EQ(live.committedBaseCounts(), resumed.committedBaseCounts());
}

// ---- one objective: the non-linear Eq. (5) chain on its own ----------

/// Level 1 is a non-linear map of level 0.
double target0Squared(const gp::Vec& x) {
  return target0(x) * target0(x) + 0.2 * x[0];
}

FidelityObs scalarObs(const gp::Dataset& x, double (*f)(const gp::Vec&)) {
  FidelityObs o;
  o.x = x;
  o.y = linalg::Matrix(x.size(), 1);
  for (std::size_t i = 0; i < x.size(); ++i) o.y(i, 0) = f(x[i]);
  return o;
}

void appendScalar(FidelityObs& o, const gp::Vec& x, double y) {
  linalg::Matrix grown(o.y.rows() + 1, 1);
  for (std::size_t i = 0; i < o.y.rows(); ++i) grown(i, 0) = o.y(i, 0);
  grown(o.y.rows(), 0) = y;
  o.x.push_back(x);
  o.y = std::move(grown);
}

MultiFidelitySurrogate fittedNonlinearPair(int n0, int n1, rng::Rng& rng,
                                           std::vector<FidelityObs>& obs,
                                           std::uint64_t fit_seed) {
  obs = {scalarObs(randomInputs(n0, 2, rng), target0),
         scalarObs(randomInputs(n1, 2, rng), target0Squared)};
  MultiFidelitySurrogate s(
      2, 1, 2, fastSurrogate(MfKind::kNonlinear, ObjModelKind::kIndependent));
  rng::Rng fit_rng(fit_seed);
  s.fit(obs, fit_rng);
  return s;
}

// With one objective each level is a plain GP: a level-0 rank-append plus
// the dense refit of the chained level above is exactly what a dense refit
// of both levels computes, so the two stay bit-identical.
TEST(SurrogateIncremental, NonlinearAppendMatchesDenseRefit) {
  rng::Rng rng(17);
  std::vector<FidelityObs> grown;
  MultiFidelitySurrogate inc = fittedNonlinearPair(16, 8, rng, grown, 8);
  MultiFidelitySurrogate dense = inc;

  const gp::Vec xa = {0.33, 0.71};
  appendScalar(grown[0], xa, target0(xa));
  inc.appendObservations(grown, /*commit=*/true);
  rng::Rng refit_rng(9);
  dense.fit(grown, refit_rng, /*optimize_hypers=*/false);

  const gp::Dataset probes = randomInputs(5, 2, rng);
  for (const auto& p : probes)
    for (std::size_t l = 0; l < 2; ++l) {
      const gp::MultiPosterior a = inc.predict(l, p);
      const gp::MultiPosterior b = dense.predict(l, p);
      EXPECT_EQ(a.mean[0], b.mean[0]) << "level " << l;
      EXPECT_EQ(a.cov(0, 0), b.cov(0, 0)) << "level " << l;
    }

  // Appending at the top level leaves the lower level untouched.
  const gp::Vec xb = {0.62, 0.27};
  appendScalar(grown[1], xb, target0Squared(xb));
  const gp::MultiPosterior low_before = inc.predict(0, probes[0]);
  inc.appendObservations(grown, /*commit=*/true);
  dense.fit(grown, refit_rng, /*optimize_hypers=*/false);
  const gp::MultiPosterior low_after = inc.predict(0, probes[0]);
  EXPECT_EQ(low_before.mean[0], low_after.mean[0]);
  EXPECT_EQ(low_before.cov(0, 0), low_after.cov(0, 0));
  for (const auto& p : probes) {
    const gp::MultiPosterior a = inc.predict(1, p);
    const gp::MultiPosterior b = dense.predict(1, p);
    EXPECT_EQ(a.mean[0], b.mean[0]);
    EXPECT_EQ(a.cov(0, 0), b.cov(0, 0));
  }
}

TEST(SurrogateIncremental, NonlinearPredictBatchBitwiseEqualsScalar) {
  rng::Rng rng(18);
  std::vector<FidelityObs> obs;
  const MultiFidelitySurrogate s = fittedNonlinearPair(14, 7, rng, obs, 9);

  const gp::Dataset cand = randomInputs(19, 2, rng);
  for (std::size_t l = 0; l < 2; ++l) {
    const std::vector<gp::MultiPosterior> batch = s.predictBatch(l, cand);
    ASSERT_EQ(batch.size(), cand.size());
    for (std::size_t c = 0; c < cand.size(); ++c) {
      const gp::MultiPosterior p = s.predict(l, cand[c]);
      EXPECT_EQ(batch[c].mean[0], p.mean[0]);
      EXPECT_EQ(batch[c].cov(0, 0), p.cov(0, 0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, IncrementalSurrogate,
    ::testing::Values(
        std::make_pair(MfKind::kNonlinear, ObjModelKind::kCorrelated),
        std::make_pair(MfKind::kNonlinear, ObjModelKind::kIndependent),
        std::make_pair(MfKind::kLinear, ObjModelKind::kIndependent),
        std::make_pair(MfKind::kSingleFidelity, ObjModelKind::kCorrelated)));

}  // namespace
}  // namespace cmmfo::core
