// Direct property tests for the math core: EIPV cell decomposition
// (Eq. 6-8) against Monte-Carlo references, and finite-difference checks of
// the analytic log-marginal-likelihood gradients that drive hyperparameter
// fitting (single-output ARD Matern-5/2 and multi-task ICM, the model of
// every Eq. 5 level). The end-to-end golden trajectories pin these
// indirectly; the tests here pin the formulas themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/acquisition.h"
#include "gp/kernel.h"
#include "gp/gp_regressor.h"
#include "gp/multitask_gp.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "pareto/cells.h"
#include "pareto/dominance.h"
#include "pareto/hypervolume.h"
#include "rng/rng.h"

namespace cmmfo {
namespace {

using pareto::Point;

// ------------------------------------------------- EIPV cell properties ----

std::vector<Point> randomFront(rng::Rng& rng, std::size_t m,
                               std::size_t n_raw) {
  std::vector<Point> pts;
  pts.reserve(n_raw);
  for (std::size_t i = 0; i < n_raw; ++i) {
    Point p(m);
    for (std::size_t d = 0; d < m; ++d) p[d] = rng.uniform(0.05, 1.0);
    pts.push_back(std::move(p));
  }
  return pareto::paretoFilter(pts);
}

bool dominatedByFront(const std::vector<Point>& front, const Point& y) {
  for (const Point& p : front) {
    bool dom = true;
    for (std::size_t d = 0; d < y.size(); ++d)
      if (p[d] > y[d]) { dom = false; break; }
    if (dom) return true;
  }
  return false;
}

// The finite non-dominated cells tile exactly the non-dominated part of the
// box [componentwise-min(front), ref]: their volumes must sum to
// vol(box) - hypervolume(front, ref), and an independent Monte-Carlo
// estimate of the same region must agree within sampling error.
TEST(EipvCells, FiniteCellVolumesComplementHypervolume) {
  rng::Rng rng(20240806);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t m = trial % 2 == 0 ? 2 : 3;
    const std::vector<Point> front = randomFront(rng, m, 4 + trial);
    const Point ref(m, 1.1);

    Point lo(m, 1e300);
    for (const Point& p : front)
      for (std::size_t d = 0; d < m; ++d) lo[d] = std::min(lo[d], p[d]);

    double box_vol = 1.0;
    for (std::size_t d = 0; d < m; ++d) box_vol *= ref[d] - lo[d];

    double finite_nd_vol = 0.0;
    for (const pareto::Cell& c : pareto::nonDominatedCells(front, ref)) {
      bool finite = true;
      for (std::size_t d = 0; d < m; ++d)
        if (!std::isfinite(c.lo[d])) { finite = false; break; }
      if (finite) finite_nd_vol += c.volume();
    }

    const double hv = pareto::hypervolume(front, ref);
    EXPECT_NEAR(finite_nd_vol, box_vol - hv, 1e-9 * std::max(1.0, box_vol))
        << "trial " << trial << " m=" << m << " |front|=" << front.size();

    // Monte-Carlo cross-check of the same identity.
    const int samples = 20000;
    int non_dominated = 0;
    for (int s = 0; s < samples; ++s) {
      Point y(m);
      for (std::size_t d = 0; d < m; ++d) y[d] = rng.uniform(lo[d], ref[d]);
      if (!dominatedByFront(front, y)) ++non_dominated;
    }
    const double frac = finite_nd_vol / box_vol;
    const double mc = static_cast<double>(non_dominated) / samples;
    const double sigma = std::sqrt(frac * (1.0 - frac) / samples) + 1e-9;
    EXPECT_NEAR(mc, frac, 5.0 * sigma + 0.005) << "trial " << trial;
  }
}

TEST(EipvCells, CellsAreDisjointAndTrulyNonDominated) {
  rng::Rng rng(7);
  const std::vector<Point> front = randomFront(rng, 3, 6);
  const Point ref(3, 1.1);
  const auto cells = pareto::nonDominatedCells(front, ref);
  ASSERT_FALSE(cells.empty());
  for (const pareto::Cell& c : cells) {
    // An interior probe of every cell must be non-dominated (the whole cell
    // is, by the grid construction). Clamp -inf edges into the box.
    Point probe(3);
    for (std::size_t d = 0; d < 3; ++d) {
      const double lo = std::isfinite(c.lo[d]) ? c.lo[d] : c.hi[d] - 1.0;
      probe[d] = 0.5 * (lo + c.hi[d]);
    }
    EXPECT_FALSE(dominatedByFront(front, probe));
  }
  // Disjointness: finite cells must not overlap pairwise.
  for (std::size_t i = 0; i < cells.size(); ++i)
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      bool overlap = true;
      for (std::size_t d = 0; d < 3; ++d) {
        const double lo_i = std::isfinite(cells[i].lo[d]) ? cells[i].lo[d]
                                                          : -1e300;
        const double lo_j = std::isfinite(cells[j].lo[d]) ? cells[j].lo[d]
                                                          : -1e300;
        if (std::min(cells[i].hi[d], cells[j].hi[d]) <=
            std::max(lo_i, lo_j) + 1e-15) {
          overlap = false;
          break;
        }
      }
      EXPECT_FALSE(overlap) << "cells " << i << " and " << j << " overlap";
    }
}

TEST(EipvProperties, ExactIndependentEipvMatchesMonteCarlo) {
  rng::Rng rng(101);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t m = trial % 2 == 0 ? 2 : 3;
    const std::vector<Point> front = randomFront(rng, m, 5);
    const Point ref(m, 1.1);
    Point mu(m), sigma(m);
    for (std::size_t d = 0; d < m; ++d) {
      mu[d] = rng.uniform(0.2, 0.9);
      sigma[d] = rng.uniform(0.05, 0.3);
    }
    const double exact = pareto::exactEipvIndependent(mu, sigma, front, ref);
    EXPECT_GE(exact, 0.0);

    // MC: mcEipv with a diagonal covariance is the same quantity.
    linalg::Matrix cov(m, m);
    for (std::size_t d = 0; d < m; ++d) cov(d, d) = sigma[d] * sigma[d];
    const auto z = core::drawStdNormals(20000, m, rng);
    const double mc = core::mcEipv(mu, cov, front, ref, z);
    EXPECT_GE(mc, 0.0);
    EXPECT_NEAR(mc, exact, 0.08 * std::max(exact, 0.01))
        << "trial " << trial << " m=" << m;
  }
}

// EIPV must be monotone in predictive-mean improvement: shifting the mean
// toward the ideal point (componentwise smaller, minimization convention)
// can only enlarge every sample's dominated volume under common random
// numbers, so the MC estimate is non-decreasing — and so is the closed form.
TEST(EipvProperties, MonotoneInPredictiveMeanImprovement) {
  rng::Rng rng(555);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t m = trial % 2 == 0 ? 2 : 3;
    const std::vector<Point> front = randomFront(rng, m, 5);
    const Point ref(m, 1.1);
    Point mu(m), sigma(m);
    for (std::size_t d = 0; d < m; ++d) {
      mu[d] = rng.uniform(0.3, 1.0);
      sigma[d] = rng.uniform(0.05, 0.25);
    }
    linalg::Matrix cov(m, m);
    for (std::size_t d = 0; d < m; ++d) cov(d, d) = sigma[d] * sigma[d];
    const auto z = core::drawStdNormals(4000, m, rng);

    double prev_mc = core::mcEipv(mu, cov, front, ref, z);
    double prev_exact = pareto::exactEipvIndependent(mu, sigma, front, ref);
    for (int step = 0; step < 4; ++step) {
      for (std::size_t d = 0; d < m; ++d) mu[d] -= 0.07;
      const double mc = core::mcEipv(mu, cov, front, ref, z);
      const double exact = pareto::exactEipvIndependent(mu, sigma, front, ref);
      // Samplewise monotone under common random numbers => no tolerance
      // needed for MC; the closed form gets a tiny numerical allowance.
      EXPECT_GE(mc, prev_mc) << "trial " << trial << " step " << step;
      EXPECT_GE(exact, prev_exact - 1e-12)
          << "trial " << trial << " step " << step;
      prev_mc = mc;
      prev_exact = exact;
    }
  }
}

// --------------------------------------- LML finite-difference checks ----

// Central finite differences of f at `packed`, compared against the
// analytic gradient returned alongside f. `h` is scaled per-coordinate.
template <typename EvalFn>
void checkGradient(const EvalFn& eval, const gp::Vec& packed, double h,
                   double rel_tol, const char* what) {
  gp::Vec grad;
  const double f0 = eval(packed, &grad);
  ASSERT_TRUE(std::isfinite(f0)) << what;
  ASSERT_EQ(grad.size(), packed.size()) << what;
  for (std::size_t i = 0; i < packed.size(); ++i) {
    gp::Vec plus = packed, minus = packed;
    plus[i] += h;
    minus[i] -= h;
    const double fp = eval(plus, nullptr);
    const double fm = eval(minus, nullptr);
    ASSERT_TRUE(std::isfinite(fp) && std::isfinite(fm)) << what;
    const double fd = (fp - fm) / (2.0 * h);
    EXPECT_NEAR(grad[i], fd, rel_tol * (1.0 + std::fabs(fd)))
        << what << ": param " << i << " of " << packed.size();
  }
}

gp::Dataset makeInputs(rng::Rng& rng, std::size_t n, std::size_t dim) {
  gp::Dataset x;
  x.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gp::Vec xi(dim);
    for (std::size_t d = 0; d < dim; ++d) xi[d] = rng.uniform(-1.0, 1.0);
    x.push_back(std::move(xi));
  }
  return x;
}

gp::Vec smoothTargets(const gp::Dataset& x, rng::Rng& rng) {
  gp::Vec y;
  y.reserve(x.size());
  for (const auto& xi : x) {
    double s = 0.0;
    for (std::size_t d = 0; d < xi.size(); ++d)
      s += std::sin(1.7 * xi[d]) + 0.3 * xi[d] * xi[d];
    y.push_back(s + 0.05 * rng.normal());
  }
  return y;
}

TEST(LmlGradients, ArdMatern52SingleOutputMatchesFiniteDifferences) {
  rng::Rng rng(31);
  const std::size_t dim = 3, n = 9;
  const gp::Dataset x = makeInputs(rng, n, dim);
  const gp::Vec y = smoothTargets(x, rng);

  gp::GpFitOptions fopts;
  gp::GpRegressor model(gp::Matern52Ard(dim, /*unit_variance=*/false), fopts);
  model.refitPosterior(x, y);  // caches the training data for the objective

  // Perturbed-but-interior parameters: lengthscales/signal near their
  // defaults, log noise strictly inside the [min_noise, max_noise] clamp
  // (the gradient is deliberately zeroed outward at the boundary).
  gp::Vec packed = model.packedParams();
  for (std::size_t i = 0; i + 1 < packed.size(); ++i)
    packed[i] += rng.uniform(-0.3, 0.3);
  packed.back() = std::log(0.08);

  const auto eval = [&model](const gp::Vec& p, gp::Vec* g) {
    return model.evalNegLogMarginalLikelihood(p, g);
  };
  checkGradient(eval, packed, 1e-5, 1e-4, "Matern52Ard");
}

TEST(LmlGradients, MultiTaskIcmMatchesFiniteDifferences) {
  rng::Rng rng(47);
  const std::size_t dim = 2, n = 7, m = 2;
  const gp::Dataset x = makeInputs(rng, n, dim);
  linalg::Matrix y(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) s += std::sin(2.0 * x[i][d]);
    y(i, 0) = s + 0.05 * rng.normal();
    y(i, 1) = -0.8 * s + 0.2 * x[i][0] + 0.05 * rng.normal();
  }

  gp::MultiTaskFitOptions fopts;
  gp::MultiTaskGp model(gp::Matern52Ard(dim, /*unit_variance=*/true), m,
                        fopts);
  model.refitPosterior(x, y);

  // Packed layout: [kernel, L lower-triangle (diag as logs), log noises].
  gp::Vec packed = model.packedParams();
  const std::size_t nk = model.kernel().numParams();
  for (std::size_t i = 0; i < nk; ++i) packed[i] += rng.uniform(-0.2, 0.2);
  for (std::size_t i = nk; i < nk + m * (m + 1) / 2; ++i)
    packed[i] += rng.uniform(-0.3, 0.3);
  for (std::size_t i = packed.size() - m; i < packed.size(); ++i)
    packed[i] = std::log(0.1) + rng.uniform(-0.2, 0.2);  // interior of clamp

  const auto eval = [&model](const gp::Vec& p, gp::Vec* g) {
    return model.evalNegLogMarginalLikelihood(p, g);
  };
  checkGradient(eval, packed, 1e-5, 2e-4, "MultiTaskGp/ICM");
}

// ------------------------------------------ pinned objective bit patterns ----
//
// The MLE objective reuses per-start scratch buffers, refactorizes in place
// and contracts the ARD gradient in one fused pass. None of that may move a
// bit: these pin the value and every gradient component at fixed parameters
// to the patterns the straightforward objective produced (a fresh kernel
// copy, Gram, factor, explicit inverse and one gramGrad matrix per
// parameter on every evaluation).

std::vector<std::uint64_t> lmlBits(double value, const gp::Vec& grad) {
  std::vector<std::uint64_t> out;
  out.reserve(grad.size() + 1);
  for (std::size_t i = 0; i <= grad.size(); ++i) {
    const double v = i == 0 ? value : grad[i - 1];
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    out.push_back(b);
  }
  return out;
}

std::string hexList(const std::vector<std::uint64_t>& bits) {
  std::string s;
  char buf[32];
  for (const std::uint64_t b : bits) {
    std::snprintf(buf, sizeof buf, "0x%016llxULL, ",
                  static_cast<unsigned long long>(b));
    s += buf;
  }
  return s;
}

void expectLmlBits(const std::vector<std::uint64_t>& got,
                   const std::vector<std::uint64_t>& want) {
  EXPECT_EQ(got, want) << "actual: {" << hexList(got) << "}";
}

// Single-output objective at fixed, perturbed parameters. `degenerate`
// duplicates half the inputs and blows up the signal variance so the Gram
// is singular to working precision and the jitter ladder must engage.
std::vector<std::uint64_t> gpLmlPattern(const gp::Matern52Ard& kernel,
                                        bool degenerate) {
  rng::Rng rng(71);
  const std::size_t dim = 4, n = 12;
  gp::Dataset x = makeInputs(rng, n, dim);
  if (degenerate)
    for (std::size_t i = n / 2; i < n; ++i) x[i] = x[i - n / 2];
  const gp::Vec y = smoothTargets(x, rng);
  gp::GpRegressor model(kernel, gp::GpFitOptions{});
  model.refitPosterior(x, y);
  gp::Vec packed = model.packedParams();
  for (std::size_t i = 0; i + 1 < packed.size(); ++i)
    packed[i] += rng.uniform(-0.4, 0.4);
  packed.back() = std::log(0.07);
  if (degenerate) {
    packed[dim] = 10.0;  // signal stddev e^10
    packed.back() = std::log(1e-4);
    gp::Matern52Ard k = kernel;
    k.setParams(gp::Vec(packed.begin(), packed.end() - 1));
    linalg::Matrix gram = k.gram(x);
    for (std::size_t i = 0; i < n; ++i) gram(i, i) += 1e-8;
    EXPECT_FALSE(linalg::Cholesky::factorize(gram)) << "jitter not needed";
  }
  gp::Vec grad;
  const double v = model.evalNegLogMarginalLikelihood(packed, &grad);
  return lmlBits(v, grad);
}

std::vector<std::uint64_t> mtgpLmlPattern() {
  rng::Rng rng(83);
  const std::size_t dim = 3, n = 10, m = 3;
  const gp::Dataset x = makeInputs(rng, n, dim);
  linalg::Matrix y(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) s += std::sin(2.0 * x[i][d]);
    y(i, 0) = s + 0.05 * rng.normal();
    y(i, 1) = -0.8 * s + 0.2 * x[i][0] + 0.05 * rng.normal();
    y(i, 2) = 0.5 * s * s + 0.05 * rng.normal();
  }
  gp::MultiTaskGp model(gp::Matern52Ard(dim, /*unit_variance=*/true), m,
                        gp::MultiTaskFitOptions{});
  model.refitPosterior(x, y);
  gp::Vec packed = model.packedParams();
  const std::size_t nk = model.kernel().numParams();
  for (std::size_t i = 0; i < nk + m * (m + 1) / 2; ++i)
    packed[i] += rng.uniform(-0.3, 0.3);
  for (std::size_t i = packed.size() - m; i < packed.size(); ++i)
    packed[i] = std::log(0.1) + rng.uniform(-0.2, 0.2);
  gp::Vec grad;
  const double v = model.evalNegLogMarginalLikelihood(packed, &grad);
  return lmlBits(v, grad);
}

TEST(LmlGradients, PinnedBitsMatern52WithSignalVariance) {
  expectLmlBits(gpLmlPattern(gp::Matern52Ard(4, false), false), {
      0x402af4a13cf44351ULL, 0xbfcd96aad1b71fc6ULL, 0xbfe6880fdb1c3302ULL,
      0xbff4126151cf8fbaULL, 0xc00a69468965d7e4ULL, 0x4017e26eb23d28b4ULL,
      0x3fb38b071b4d84f4ULL});
}

TEST(LmlGradients, PinnedBitsMatern52UnitVariance) {
  expectLmlBits(gpLmlPattern(gp::Matern52Ard(4, true), false), {
      0x4028ca5a7ff62feaULL, 0x3ff05bf8c7052004ULL, 0xbfe226b8242ee1afULL,
      0xbff05dc3f10d8605ULL, 0xc00bf9f8358459e5ULL, 0x3fb815eca0d97256ULL});
}

TEST(LmlGradients, PinnedBitsJitteredGram) {
  expectLmlBits(gpLmlPattern(gp::Matern52Ard(4, false), true), {
      0x404fae308909efcdULL, 0xbfe51bf43a000000ULL, 0xbfb53fe1b2800000ULL,
      0xbfe1142a4d990000ULL, 0xbfe527dc34000000ULL, 0x4017ffffc0000000ULL,
      0x0000000000000000ULL});
}

TEST(LmlGradients, PinnedBitsMultiTask) {
  expectLmlBits(mtgpLmlPattern(), {
      0x4046c434110d2c78ULL, 0x401c90b7510c3ccbULL, 0x401abeff749460b5ULL,
      0x3fd7d2a011df0422ULL, 0x3fe72830217ae018ULL, 0x40235486c6a3e42cULL,
      0xc013c406ac7f4634ULL, 0x4022dfe2af6b019eULL, 0xc02df7aef424d1ebULL,
      0xc0399db97d4dd764ULL, 0x3f9368e5fa71220eULL, 0x3faa49be544d248fULL,
      0xbfe7b156df0cdaf9ULL});
}

}  // namespace
}  // namespace cmmfo
