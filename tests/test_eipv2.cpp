#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/acquisition.h"
#include "pareto/cells.h"
#include "pareto/hypervolume.h"
#include "rng/rng.h"

namespace cmmfo::pareto {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double normPdf(double z) {
  return std::exp(-0.5 * z * z) * 0.3989422804014327;
}

// 24-point Gauss-Legendre nodes/weights on [-1, 1].
constexpr int kGlOrder = 24;
constexpr double kGlX[kGlOrder] = {
    -0.9951872199970213, -0.9747285559713095, -0.9382745520027328,
    -0.8864155270044011, -0.8200019859739029, -0.7401241915785544,
    -0.6480936519369755, -0.5454214713888396, -0.4337935076260451,
    -0.3150426796961634, -0.1911188674736163, -0.0640568928626056,
    0.0640568928626056,  0.1911188674736163,  0.3150426796961634,
    0.4337935076260451,  0.5454214713888396,  0.6480936519369755,
    0.7401241915785544,  0.8200019859739029,  0.8864155270044011,
    0.9382745520027328,  0.9747285559713095,  0.9951872199970213};
constexpr double kGlW[kGlOrder] = {
    0.0123412297999872, 0.0285313886289337, 0.0442774388174198,
    0.0592985849154368, 0.0733464814110803, 0.0861901615319533,
    0.0976186521041139, 0.1074442701159656, 0.1155056680537256,
    0.1216704729278034, 0.1258374563468283, 0.1279381953467522,
    0.1279381953467522, 0.1258374563468283, 0.1216704729278034,
    0.1155056680537256, 0.1074442701159656, 0.0976186521041139,
    0.0861901615319533, 0.0733464814110803, 0.0592985849154368,
    0.0442774388174198, 0.0285313886289337, 0.0123412297999872};

/// One cell's expected dominated area under the correlated bivariate
/// normal, via the conditional reduction over y2.
double cellContribution(const Cell& cell, double mu1, double s1, double mu2,
                        double s2, double rho) {
  const double l1 = cell.lo[0], h1 = cell.hi[0];
  const double l2 = cell.lo[1], h2 = cell.hi[1];

  // Degenerate y2: point mass at mu2.
  if (s2 < 1e-12) {
    if (mu2 >= h2) return 0.0;
    const double g2 = h2 - std::max(l2, mu2);
    return g2 * expectedDominatedEdge(l1, h1, mu1, s1);
  }

  const double cond_slope = rho * s1 / s2;
  const double cond_sd = s1 * std::sqrt(std::max(1.0 - rho * rho, 1e-12));
  auto inner = [&](double y2) {
    const double cond_mu = mu1 + cond_slope * (y2 - mu2);
    return expectedDominatedEdge(l1, h1, cond_mu, cond_sd);
  };
  auto gauss2 = [&](double y2) {
    const double z = (y2 - mu2) / s2;
    return normPdf(z) / s2;
  };
  auto integrate = [&](double a, double b, auto&& f) {
    if (!(b > a)) return 0.0;
    const double c = 0.5 * (a + b), r = 0.5 * (b - a);
    double acc = 0.0;
    for (int i = 0; i < kGlOrder; ++i) acc += kGlW[i] * f(c + r * kGlX[i]);
    return acc * r;
  };

  // Integration support of p(y2): clip to +-8.5 sigma.
  const double support_lo = mu2 - 8.5 * s2;
  const double support_hi = mu2 + 8.5 * s2;

  double total = 0.0;
  if (l2 != -kInf) {
    // Region y2 < l2: g2 is the constant cell height.
    const double a = support_lo, b = std::min(l2, support_hi);
    total += (h2 - l2) *
             integrate(a, b, [&](double y2) { return inner(y2) * gauss2(y2); });
  }
  {
    // Region l2 <= y2 < h2: g2 = h2 - y2.
    const double a = std::max(l2 == -kInf ? support_lo : l2, support_lo);
    const double b = std::min(h2, support_hi);
    total += integrate(a, b, [&](double y2) {
      return (h2 - y2) * inner(y2) * gauss2(y2);
    });
  }
  return total;
}

/// Deterministic EIPV for TWO correlated Gaussian objectives: the exact
/// oracle the Monte-Carlo estimator core::mcEipv is checked against.
///
/// For M = 2 the integral factors through the cell decomposition with a 1-D
/// conditional reduction:
///
///   E[vol] = sum_cells ∫ g2(y2) E[g1(y1) | y2] p(y2) dy2,
///
/// where g_d(y) = (hi_d - max(lo_d, y))^+ is the dominated extent along one
/// cell edge and y1 | y2 is the usual conditional normal. The inner
/// expectation has the same closed form as the independent case; the outer
/// integral is smooth piecewise and is evaluated with fixed-order
/// Gauss-Legendre panels, giving ~1e-9 accuracy at deterministic cost.
///
/// `cov` is the 2x2 predictive covariance (PSD; correlation clamped to
/// |rho| <= 0.999 for conditioning).
double exactEipvCorrelated2(const Point& mu, const linalg::Matrix& cov,
                            const std::vector<Point>& front, const Point& ref) {
  assert(mu.size() == 2 && ref.size() == 2);
  assert(cov.rows() == 2 && cov.cols() == 2);
  const double s1 = std::sqrt(std::max(cov(0, 0), 0.0));
  const double s2 = std::sqrt(std::max(cov(1, 1), 0.0));
  double rho = 0.0;
  if (s1 > 1e-12 && s2 > 1e-12)
    rho = std::clamp(cov(0, 1) / (s1 * s2), -0.999, 0.999);

  // Degenerate y1: conditional reduction still works with the roles of the
  // formula unchanged (cond_sd ~ 0 handled by expectedDominatedEdge).
  double eipv = 0.0;
  for (const Cell& cell : nonDominatedCells(front, ref))
    eipv += cellContribution(cell, mu[0], s1, mu[1], s2, rho);
  return eipv;
}


linalg::Matrix cov2(double v1, double v2, double c) {
  linalg::Matrix m(2, 2);
  m(0, 0) = v1;
  m(1, 1) = v2;
  m(0, 1) = m(1, 0) = c;
  return m;
}

const std::vector<Point> kFront = {{0.2, 0.8}, {0.5, 0.5}, {0.8, 0.2}};
const Point kRef = {1.0, 1.0};

TEST(ExactEipv2, MatchesIndependentFormulaAtZeroCorrelation) {
  const Point mu = {0.45, 0.35};
  const Point sigma = {0.15, 0.2};
  const double ind = exactEipvIndependent(mu, sigma, kFront, kRef);
  const double corr = exactEipvCorrelated2(
      mu, cov2(sigma[0] * sigma[0], sigma[1] * sigma[1], 0.0), kFront, kRef);
  EXPECT_NEAR(corr, ind, 1e-8);
}

class Eipv2Correlations : public ::testing::TestWithParam<double> {};

TEST_P(Eipv2Correlations, MatchesMonteCarlo) {
  const double rho = GetParam();
  const Point mu = {0.5, 0.45};
  const double s1 = 0.18, s2 = 0.12;
  const linalg::Matrix cov = cov2(s1 * s1, s2 * s2, rho * s1 * s2);

  const double exact = exactEipvCorrelated2(mu, cov, kFront, kRef);

  rng::Rng rng(42);
  const auto z = core::drawStdNormals(400000, 2, rng);
  const double mc = core::mcEipv(mu, cov, kFront, kRef, z);
  EXPECT_NEAR(exact, mc, 2.5e-3) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Rhos, Eipv2Correlations,
                         ::testing::Values(-0.9, -0.5, 0.0, 0.4, 0.85));

TEST(ExactEipv2, DeterministicPointMassEqualsHvi) {
  const Point mu = {0.3, 0.3};
  const double e =
      exactEipvCorrelated2(mu, cov2(1e-26, 1e-26, 0.0), kFront, kRef);
  EXPECT_NEAR(e, hypervolumeImprovement(mu, kFront, kRef), 1e-6);
}

TEST(ExactEipv2, ZeroForConfidentlyDominatedMean) {
  const double e = exactEipvCorrelated2({0.9, 0.9}, cov2(1e-6, 1e-6, 0.0),
                                        kFront, kRef);
  EXPECT_NEAR(e, 0.0, 1e-9);
}

TEST(ExactEipv2, CorrelationSignChangesValue) {
  // Behind a single Pareto point, positively correlated samples move BELOW
  // the front in both objectives together, and the newly dominated volume is
  // a product of the two improvements — so positive correlation carries more
  // expected improvement than negative (which yields thin one-sided slices).
  // Treating the posterior as independent (the prior-work assumption the
  // paper criticizes) lands in between: correlation genuinely matters.
  const std::vector<Point> front = {{0.5, 0.5}};
  const Point mu = {0.55, 0.55};
  const double s = 0.2;
  const double neg = exactEipvCorrelated2(mu, cov2(s * s, s * s, -0.9 * s * s),
                                          front, kRef);
  const double ind =
      exactEipvCorrelated2(mu, cov2(s * s, s * s, 0.0), front, kRef);
  const double pos = exactEipvCorrelated2(mu, cov2(s * s, s * s, 0.9 * s * s),
                                          front, kRef);
  EXPECT_GT(pos, ind * 1.05);
  EXPECT_GT(ind, neg * 1.05);
}

TEST(ExactEipv2, EmptyFrontIsExpectedBoxVolume) {
  // No front: EIPV = E[(r1-y1)^+ (r2-y2)^+], check against MC.
  const Point mu = {0.5, 0.5};
  const linalg::Matrix cov = cov2(0.04, 0.04, 0.02);
  const double exact = exactEipvCorrelated2(mu, cov, {}, kRef);
  rng::Rng rng(7);
  const auto z = core::drawStdNormals(300000, 2, rng);
  const double mc = core::mcEipv(mu, cov, {}, kRef, z);
  EXPECT_NEAR(exact, mc, 3e-3);
}

TEST(ExactEipv2, DegenerateSecondObjective) {
  // sigma2 ~ 0: reduces to a 1-D expectation at y2 = mu2.
  const Point mu = {0.4, 0.45};
  const double e =
      exactEipvCorrelated2(mu, cov2(0.01, 1e-28, 0.0), kFront, kRef);
  EXPECT_GT(e, 0.0);
  EXPECT_TRUE(std::isfinite(e));
}

}  // namespace
}  // namespace cmmfo::pareto
