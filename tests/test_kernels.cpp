#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "gp/ard_kernels.h"
#include "linalg/cholesky.h"
#include "rng/rng.h"

namespace cmmfo::gp {
namespace {

Dataset randomPoints(std::size_t n, std::size_t d, rng::Rng& rng) {
  Dataset x(n, Vec(d));
  for (auto& xi : x)
    for (auto& v : xi) v = rng.uniform(-2.0, 2.0);
  return x;
}

/// Factory for the kernel families under test.
KernelPtr makeKernel(const std::string& name, std::size_t dim) {
  if (name == "rbf") return std::make_unique<RbfArd>(dim);
  if (name == "matern") return std::make_unique<Matern52Ard>(dim);
  if (name == "rbf_unit") return std::make_unique<RbfArd>(dim, true);
  if (name == "matern_unit") return std::make_unique<Matern52Ard>(dim, true);
  ADD_FAILURE() << "unknown kernel " << name;
  return nullptr;
}

class KernelFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelFamilies, GramIsSymmetricPsd) {
  rng::Rng rng(7);
  const auto k = makeKernel(GetParam(), 3);
  const Dataset x = randomPoints(12, 3, rng);
  linalg::Matrix gram = k->gram(x);
  EXPECT_LT(gram.maxAbsDiff(gram.transposed()), 1e-12);
  // PSD: factorizable after adding a whisker of jitter.
  EXPECT_TRUE(linalg::Cholesky::factorizeWithJitter(gram, 1e-10).has_value());
}

TEST_P(KernelFamilies, DiagonalDominatesOffDiagonal) {
  rng::Rng rng(8);
  const auto k = makeKernel(GetParam(), 3);
  const Dataset x = randomPoints(8, 3, rng);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < x.size(); ++j)
      EXPECT_LE(k->eval(x[i], x[j]),
                k->eval(x[i], x[i]) + 1e-12);  // stationary kernels peak at 0
}

TEST_P(KernelFamilies, ParamsRoundTrip) {
  rng::Rng rng(9);
  const auto k = makeKernel(GetParam(), 3);
  Vec p = k->params();
  for (auto& v : p) v += 0.37;
  k->setParams(p);
  const Vec q = k->params();
  ASSERT_EQ(p.size(), q.size());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_DOUBLE_EQ(p[i], q[i]);
}

TEST_P(KernelFamilies, CloneIsIndependent) {
  const auto k = makeKernel(GetParam(), 2);
  auto c = k->clone();
  Vec p = c->params();
  for (auto& v : p) v += 1.0;
  c->setParams(p);
  const Vec x = {0.1, 0.2}, y = {0.6, -0.4};
  EXPECT_NE(k->eval(x, y), c->eval(x, y));
}

TEST_P(KernelFamilies, GramGradMatchesFiniteDifference) {
  rng::Rng rng(10);
  const auto k = makeKernel(GetParam(), 2);
  const Dataset x = randomPoints(6, 2, rng);
  const Vec p0 = k->params();
  const double h = 1e-6;
  for (std::size_t p = 0; p < k->numParams(); ++p) {
    const linalg::Matrix analytic = k->gramGrad(x, p);
    Vec pp = p0, pm = p0;
    pp[p] += h;
    pm[p] -= h;
    k->setParams(pp);
    const linalg::Matrix gp_ = k->gram(x);
    k->setParams(pm);
    const linalg::Matrix gm = k->gram(x);
    k->setParams(p0);
    for (std::size_t i = 0; i < x.size(); ++i)
      for (std::size_t j = 0; j < x.size(); ++j) {
        const double numeric = (gp_(i, j) - gm(i, j)) / (2.0 * h);
        EXPECT_NEAR(analytic(i, j), numeric, 1e-5)
            << GetParam() << " param " << p << " entry " << i << "," << j;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, KernelFamilies,
                         ::testing::Values("rbf", "matern", "rbf_unit",
                                           "matern_unit"));

TEST(RbfArd, KnownValue) {
  RbfArd k(1);
  k.setLengthscale(0, 1.0);
  k.setSignalStddev(1.0);
  EXPECT_NEAR(k.eval({0.0}, {1.0}), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(k.eval({0.0}, {0.0}), 1.0, 1e-12);
}

TEST(RbfArd, LengthscaleControlsReach) {
  RbfArd k(1);
  k.setLengthscale(0, 0.2);
  const double near = k.eval({0.0}, {0.1});
  k.setLengthscale(0, 5.0);
  const double far = k.eval({0.0}, {0.1});
  EXPECT_LT(near, far);
}

TEST(RbfArd, UnitVarianceHasNoSignalParam) {
  RbfArd k(3, true);
  EXPECT_EQ(k.numParams(), 3u);
  EXPECT_DOUBLE_EQ(k.signalVariance(), 1.0);
  EXPECT_NEAR(k.eval({1, 2, 3}, {1, 2, 3}), 1.0, 1e-12);
}

TEST(Matern52Ard, KnownValueAtUnitDistance) {
  Matern52Ard k(1);
  k.setLengthscale(0, 1.0);
  k.setSignalStddev(1.0);
  const double r = 1.0;
  const double expected =
      (1.0 + std::sqrt(5.0) * r + 5.0 * r * r / 3.0) * std::exp(-std::sqrt(5.0) * r);
  EXPECT_NEAR(k.eval({0.0}, {1.0}), expected, 1e-12);
}

TEST(Matern52Ard, SmoothAtZeroDistance) {
  Matern52Ard k(1);
  // The gradient of the Gram entry at coincident points must be finite and
  // zero (the r factors cancel analytically).
  const Dataset x = {{0.5}, {0.5}};
  const linalg::Matrix g = k.gramGrad(x, 0);
  EXPECT_DOUBLE_EQ(g(0, 1), 0.0);
  EXPECT_TRUE(std::isfinite(g(0, 0)));
}

TEST(Matern52Ard, HeavierTailsThanRbf) {
  Matern52Ard m(1);
  RbfArd r(1);
  // Same unit hyperparameters: Matern decays slower at large distance.
  EXPECT_GT(m.eval({0.0}, {3.0}), r.eval({0.0}, {3.0}));
}

// The fused gradient trace must equal the row-major contraction of the
// gramGrad matrices, every bit: the marginal-likelihood gradient, and so
// every MLE and golden trajectory, is built on it. The oracle is the plain
// loop (one n x n gramGrad matrix per parameter); w is either random or a
// symmetric matrix with a tiny per-entry jitter, so a trace that folded the
// (i, j) and (j, i) terms together would show. A repeated input covers the
// r = 0 limit of the Matern derivative.
TEST(ArdKernels, FusedTraceEqualsGramGradContraction) {
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  rng::Rng rng(41);
  const std::size_t n = 9, dim = 3;
  Dataset x = randomPoints(n, dim, rng);
  x[5] = x[2];
  for (const bool unit : {false, true}) {
    std::vector<KernelPtr> kernels;
    kernels.push_back(std::make_unique<RbfArd>(dim, unit));
    kernels.push_back(std::make_unique<Matern52Ard>(dim, unit));
    for (const KernelPtr& k : kernels) {
      Vec p = k->params();
      for (auto& v : p) v += rng.uniform(-0.5, 0.5);
      k->setParams(p);
      for (const bool jittered : {false, true}) {
        linalg::Matrix w(n, n);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            w(i, j) = jittered && j < i ? w(j, i) * (1.0 + 1e-12 * rng.normal())
                                        : rng.normal();
        Vec tr;
        k->gramGradTrace(x, w, tr);
        ASSERT_EQ(tr.size(), k->numParams());
        for (std::size_t q = 0; q < tr.size(); ++q) {
          const linalg::Matrix dk = k->gramGrad(x, q);
          double s = 0.0;
          for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) s += w(i, j) * dk(i, j);
          EXPECT_EQ(bits(tr[q]), bits(s))
              << k->name() << " unit_variance=" << unit
              << " jittered=" << jittered << " param " << q;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cmmfo::gp
