#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "bench_suite/benchmarks.h"
#include "core/acquisition.h"
#include "core/optimizer.h"
#include "obs/obs.h"
#include "pareto/cells.h"
#include "pareto/hypervolume.h"

namespace cmmfo::core {
namespace {

linalg::Matrix diag2(double a, double b) {
  linalg::Matrix m(2, 2);
  m(0, 0) = a;
  m(1, 1) = b;
  return m;
}

TEST(DrawStdNormals, ShapeAndDeterminism) {
  rng::Rng r1(5), r2(5);
  const auto z1 = drawStdNormals(10, 3, r1);
  const auto z2 = drawStdNormals(10, 3, r2);
  ASSERT_EQ(z1.size(), 10u);
  ASSERT_EQ(z1[0].size(), 3u);
  EXPECT_EQ(z1, z2);
}

TEST(McEipv, NonNegative) {
  rng::Rng rng(1);
  const auto z = drawStdNormals(64, 2, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5}};
  EXPECT_GE(mcEipv({0.9, 0.9}, diag2(0.01, 0.01), front, {1.0, 1.0}, z), 0.0);
}

TEST(McEipv, DeterministicGivenSameNormals) {
  rng::Rng rng(2);
  const auto z = drawStdNormals(32, 2, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5}};
  const double a = mcEipv({0.3, 0.4}, diag2(0.02, 0.02), front, {1.0, 1.0}, z);
  const double b = mcEipv({0.3, 0.4}, diag2(0.02, 0.02), front, {1.0, 1.0}, z);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(McEipv, ZeroCovarianceEqualsHvi) {
  rng::Rng rng(3);
  const auto z = drawStdNormals(16, 2, rng);
  const std::vector<pareto::Point> front = {{0.4, 0.6}, {0.6, 0.4}};
  const pareto::Point ref = {1.0, 1.0};
  const gp::Vec mu = {0.3, 0.3};
  const double e = mcEipv(mu, linalg::Matrix(2, 2), front, ref, z);
  EXPECT_NEAR(e, pareto::hypervolumeImprovement(mu, front, ref), 1e-12);
}

TEST(McEipv, MatchesExactIndependentFormula) {
  // With a diagonal covariance the MC estimate must converge to the exact
  // cell-decomposition value.
  rng::Rng rng(4);
  const auto z = drawStdNormals(60000, 2, rng);
  const std::vector<pareto::Point> front = {{0.2, 0.8}, {0.5, 0.5}, {0.8, 0.2}};
  const pareto::Point ref = {1.0, 1.0};
  const gp::Vec mu = {0.45, 0.35};
  const pareto::Point sigma = {0.15, 0.2};
  const double exact = pareto::exactEipvIndependent(mu, sigma, front, ref);
  const double mc = mcEipv(mu, diag2(sigma[0] * sigma[0], sigma[1] * sigma[1]),
                           front, ref, z);
  EXPECT_NEAR(mc, exact, 0.004);
}

TEST(McEipv, CorrelationChangesValue) {
  // With strong negative correlation between objectives, joint samples
  // spread along the front and dominate more volume than independent ones.
  rng::Rng rng(5);
  const auto z = drawStdNormals(20000, 2, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5}};
  const pareto::Point ref = {1.0, 1.0};
  const gp::Vec mu = {0.55, 0.55};

  linalg::Matrix ind = diag2(0.04, 0.04);
  linalg::Matrix corr = ind;
  corr(0, 1) = corr(1, 0) = -0.038;

  const double e_ind = mcEipv(mu, ind, front, ref, z);
  const double e_corr = mcEipv(mu, corr, front, ref, z);
  EXPECT_GT(std::fabs(e_corr - e_ind) / std::max(e_ind, 1e-12), 0.05);
}

TEST(McEipv, BetterMeanScoresHigher) {
  rng::Rng rng(6);
  const auto z = drawStdNormals(256, 2, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5}};
  const pareto::Point ref = {1.0, 1.0};
  const double good = mcEipv({0.2, 0.2}, diag2(0.01, 0.01), front, ref, z);
  const double bad = mcEipv({0.8, 0.8}, diag2(0.01, 0.01), front, ref, z);
  EXPECT_GT(good, bad);
}

TEST(McEipv, ThreeObjectives) {
  rng::Rng rng(7);
  const auto z = drawStdNormals(128, 3, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5, 0.5}};
  linalg::Matrix cov(3, 3);
  for (int i = 0; i < 3; ++i) cov(i, i) = 0.01;
  const double e =
      mcEipv({0.3, 0.3, 0.3}, cov, front, {1.0, 1.0, 1.0}, z);
  EXPECT_GT(e, 0.1);  // roughly 0.7^3 - 0.5^3
  EXPECT_LT(e, 0.35);
}

TEST(ExpectedImprovement, Eq2KnownRegimes) {
  // Far-better incumbent with tiny sigma: EI ~ deterministic improvement.
  EXPECT_NEAR(expectedImprovement(0.0, 1e-13, 5.0, 0.0), 5.0, 1e-9);
  // Mean far above incumbent: essentially zero.
  EXPECT_LT(expectedImprovement(10.0, 0.5, 0.0, 0.0), 1e-8);
  // At the incumbent with unit sigma and no jitter: EI = sigma * phi(0).
  EXPECT_NEAR(expectedImprovement(0.0, 1.0, 0.0, 0.0), 0.3989422804, 1e-6);
}

TEST(ExpectedImprovement, MonotoneInUncertaintyAtIncumbent) {
  const double lo = expectedImprovement(1.0, 0.1, 1.0, 0.0);
  const double hi = expectedImprovement(1.0, 0.5, 1.0, 0.0);
  EXPECT_GT(hi, lo);
}

TEST(ExpectedImprovement, JitterEncouragesExploration) {
  // Jitter shifts the target; EI shrinks for a point at the incumbent.
  EXPECT_LT(expectedImprovement(1.0, 0.2, 1.0, 0.1),
            expectedImprovement(1.0, 0.2, 1.0, 0.0));
}

TEST(CostPenalty, FavorsCheapFidelities) {
  // Eq. 10: PEIPV_i = EIPV_i * T_impl / T_i.
  EXPECT_DOUBLE_EQ(costPenalty(10.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(costPenalty(100.0, 100.0), 1.0);
  EXPECT_GT(costPenalty(1.0, 50.0), costPenalty(25.0, 50.0));
}

// ------------------------------------------- bound-pruned PEIPV scan ----

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<pareto::Point> randomFront(std::size_t n, std::size_t m,
                                       rng::Rng& rng) {
  std::vector<pareto::Point> pts(n, pareto::Point(m));
  for (auto& p : pts)
    for (auto& v : p) v = rng.uniform();
  return pareto::paretoFilter(pts);
}

/// A candidate drawn from the cases the scan meets: an ordinary correlated
/// posterior, a point mass, an indefinite covariance Cholesky rejects, and
/// means or spreads that put samples beyond the reference point.
ScanCandidate randomCandidate(std::size_t m, rng::Rng& rng) {
  ScanCandidate c;
  c.mu.resize(m);
  for (auto& v : c.mu) v = -0.3 + 1.6 * rng.uniform();
  c.cov = linalg::Matrix(m, m);
  const double kind = rng.uniform();
  if (kind < 0.1) return c;  // zero variance
  if (kind < 0.2) {          // indefinite: the factorization fails
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j) c.cov(i, j) = i == j ? 0.01 : 0.05;
    return c;
  }
  const double scale = kind < 0.4 ? 1.0 : 0.05;
  linalg::Matrix a(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) a(i, j) = scale * rng.normal();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < m; ++k) acc += a(i, k) * a(j, k);
      c.cov(i, j) = acc;
    }
  return c;
}

TEST(Acquisition, BoxBoundDominatesPeipvExactly) {
  rng::Rng rng(2024);
  int outside = 0, point_mass = 0;
  for (const std::size_t m : {2u, 3u}) {
    const pareto::Point ref(m, 1.1);
    for (int trial = 0; trial < 600; ++trial) {
      const auto front = randomFront(1 + rng.index(12), m, rng);
      const auto z = drawStdNormals(32, m, rng);
      const ScanCandidate c = randomCandidate(m, rng);
      const double penalty = 0.5 + 40.0 * rng.uniform();
      const auto y = eipvSamples(c.mu, c.cov, z);
      point_mass += y.size() == 1;
      for (const auto& s : y) outside += pareto::boxVolume(s, ref) == 0.0;
      const double eipv = eipvOfSamples(y, front, ref);
      ASSERT_TRUE(sameBits(eipv, mcEipv(c.mu, c.cov, front, ref, z)));
      EXPECT_GE(penalty * eipvBound(y, ref), penalty * eipv)
          << "m=" << m << " trial=" << trial;
      // With no front the improvement is the box itself.
      EXPECT_TRUE(sameBits(eipvBound(y, ref), eipvOfSamples(y, {}, ref)));
    }
  }
  // The draws reached the edge cases the bound has to survive.
  EXPECT_GT(point_mass, 50);
  EXPECT_GT(outside, 1000);
}

TEST(Acquisition, ReusedSampleStorageMatchesFreshDraws) {
  // One thread's storage carried across candidates of alternating M and
  // sample counts, through point masses and failed factorizations: every
  // draw equals eipvSamples on fresh storage and the plain factor-and-sample
  // reference, bit for bit.
  rng::Rng rng(77);
  linalg::Cholesky chol;
  std::vector<pareto::Point> y;
  int point_mass = 0, failed = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t m = 2 + trial % 3;
    const std::size_t samples = trial % 2 == 0 ? 32 : 5;
    const auto z = drawStdNormals(samples, m, rng);
    const ScanCandidate c = randomCandidate(m, rng);
    eipvSamplesInto(c.mu, c.cov, z, chol, y);
    const auto fresh = eipvSamples(c.mu, c.cov, z);

    std::vector<pareto::Point> ref;
    double max_var = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      max_var = std::max(max_var, c.cov(i, i));
    const auto l = linalg::Cholesky::factorizeWithJitter(c.cov, 1e-12);
    if (max_var < 1e-24 || !l) {
      ref.push_back(c.mu);
      point_mass += max_var < 1e-24;
      failed += max_var >= 1e-24;
    } else {
      for (const auto& zs : z) {
        pareto::Point p = c.mu;
        for (std::size_t i = 0; i < m; ++i) {
          double acc = 0.0;
          for (std::size_t k = 0; k <= i; ++k) acc += l->rowPtr(i)[k] * zs[k];
          p[i] += acc;
        }
        ref.push_back(p);
      }
    }
    ASSERT_EQ(y.size(), ref.size()) << "trial " << trial;
    ASSERT_EQ(fresh.size(), ref.size()) << "trial " << trial;
    for (std::size_t s = 0; s < ref.size(); ++s) {
      ASSERT_EQ(y[s].size(), m);
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_TRUE(sameBits(y[s][i], ref[s][i])) << "trial " << trial;
        EXPECT_TRUE(sameBits(fresh[s][i], ref[s][i])) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(point_mass, 20);
  EXPECT_GT(failed, 20);
}

/// The scan as a plain loop over every candidate in order, with the audit's
/// full stable sort: what scanPeipv must reproduce bit for bit.
PeipvScan exhaustiveScan(const std::vector<ScanCandidate>& cands,
                         const std::vector<pareto::Point>& front,
                         const pareto::Point& ref,
                         const std::vector<std::vector<double>>& z,
                         double penalty, const double* incumbent,
                         std::size_t top_k) {
  PeipvScan out;
  bool have = incumbent != nullptr;
  double best = have ? *incumbent : 0.0;
  std::vector<ScanScore> all;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const double eipv = mcEipv(cands[i].mu, cands[i].cov, front, ref, z);
    const double peipv = penalty * eipv;
    if (!have || peipv > best) {
      have = true;
      best = peipv;
      out.improved = true;
      out.best = i;
      out.peipv = peipv;
    }
    all.push_back({i, eipv, peipv});
  }
  out.evaluated = cands.size();
  if (top_k > 0) {
    std::stable_sort(all.begin(), all.end(),
                     [](const ScanScore& a, const ScanScore& b) {
                       return a.peipv > b.peipv;
                     });
    if (all.size() > top_k) all.resize(top_k);
    out.top = all;
  }
  return out;
}

void expectSameScan(const PeipvScan& got, const PeipvScan& want) {
  ASSERT_EQ(got.improved, want.improved);
  if (want.improved) {
    EXPECT_EQ(got.best, want.best);
    EXPECT_TRUE(sameBits(got.peipv, want.peipv));
  }
  ASSERT_EQ(got.top.size(), want.top.size());
  for (std::size_t k = 0; k < want.top.size(); ++k) {
    EXPECT_EQ(got.top[k].index, want.top[k].index) << "rank " << k;
    EXPECT_TRUE(sameBits(got.top[k].eipv, want.top[k].eipv)) << "rank " << k;
    EXPECT_TRUE(sameBits(got.top[k].peipv, want.top[k].peipv)) << "rank " << k;
  }
  EXPECT_LE(got.evaluated, want.evaluated);
}

TEST(Acquisition, ScanMatchesExhaustiveSequentialLoop) {
  rng::Rng rng(77);
  const std::size_t m = 3;
  const pareto::Point ref(m, 1.1);
  std::size_t pruned = 0;
  // Sizes on both sides of the inline/chunked switch and a chunk boundary.
  for (const std::size_t n : {0u, 1u, 7u, 64u, 65u, 130u, 300u}) {
    const auto front = randomFront(10, m, rng);
    const auto z = drawStdNormals(16, m, rng);
    std::vector<ScanCandidate> cands;
    for (std::size_t i = 0; i < n; ++i) {
      // Every fifth candidate repeats an earlier one: exact ties that the
      // first index must win, in the argmax and in the audit ranking.
      if (i % 5 == 4) cands.push_back(cands[rng.index(i)]);
      else cands.push_back(randomCandidate(m, rng));
    }
    const double penalty = 3.0;
    const PeipvScan plain = exhaustiveScan(cands, front, ref, z, penalty,
                                           nullptr, 0);
    std::vector<double> incumbents = {0.0, 1e300};
    if (plain.improved) incumbents.push_back(plain.peipv);  // tie: keeps it
    for (const std::size_t top_k : {std::size_t{0}, obs::kTopK}) {
      const PeipvScan got =
          scanPeipv(cands, front, ref, z, penalty, nullptr, top_k);
      expectSameScan(got, exhaustiveScan(cands, front, ref, z, penalty,
                                         nullptr, top_k));
      pruned += got.evaluated < n;
      for (const double inc : incumbents)
        expectSameScan(
            scanPeipv(cands, front, ref, z, penalty, &inc, top_k),
            exhaustiveScan(cands, front, ref, z, penalty, &inc, top_k));
    }
  }
  EXPECT_GT(pruned, 4u);  // the bound did skip work
}

struct SpmvFixture {
  SpmvFixture()
      : bm(bench_suite::makeSpmvCrs()),
        space(hls::DesignSpace::buildPruned(bm.kernel, bm.spec)),
        sim(bm.kernel, sim::DeviceModel::virtex7Vc707(), bm.sim_params, 42) {}
  bench_suite::Benchmark bm;
  hls::DesignSpace space;
  sim::FpgaToolSim sim;
};

/// Sync (B=1), batch (B=4) and async (W=4) campaigns whose scans are large
/// enough (200 candidates) to take the chunked parallel path.
std::vector<core::OptimizerOptions> scanPaths() {
  core::OptimizerOptions o;
  o.n_iter = 6;
  o.mc_samples = 16;
  o.max_candidates = 200;
  o.refit_every = 3;
  o.surrogate.mtgp.mle_restarts = 0;
  o.surrogate.mtgp.max_mle_iters = 25;
  o.surrogate.gp.mle_restarts = 0;
  o.surrogate.gp.max_mle_iters = 25;
  o.seed = 5;
  core::OptimizerOptions batch = o;
  batch.batch_size = 4;
  batch.n_workers = 4;
  core::OptimizerOptions async = o;
  async.async = true;
  async.n_workers = 4;
  return {o, batch, async};
}

TEST(Acquisition, ScanParityOnCampaignPosteriors) {
  // The posteriors each path's surrogate holds after a short and a longer
  // campaign, scanned at every fidelity: pruned and parallel against the
  // exhaustive loop, with the audit's top-k (recorder on) and without it
  // (recorder off).
  std::size_t scans = 0, pruned = 0;
  const double penalties[] = {30.0, 4.0, 1.0};
  for (core::OptimizerOptions o : scanPaths()) {
    for (const int n_iter : {3, 6}) {
      o.n_iter = n_iter;
      SpmvFixture f;
      core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
      const core::OptimizeResult res = opt.run();
      rng::Rng rng(o.seed);
      std::set<std::size_t> sampled;
      for (const auto& rec : res.cs) sampled.insert(rec.config);
      gp::Dataset feats;
      for (std::size_t c = 0; c < f.space.size(); ++c)
        if (!sampled.count(c)) feats.push_back(f.space.features(c));
      for (int fid = 0; fid < sim::kNumFidelities; ++fid) {
        // Normalize like the optimizer, against this fidelity's reports.
        std::vector<gp::Vec> ys;
        for (const auto& rec : res.cs)
          if (static_cast<int>(rec.fidelity) == fid && rec.report.valid)
            ys.push_back(rec.report.objectives());
        if (ys.empty()) continue;
        gp::Vec lo(3, 1e300), range(3);
        for (int d = 0; d < 3; ++d) {
          double hi = -1e300;
          for (const auto& y : ys) {
            lo[d] = std::min(lo[d], y[d]);
            hi = std::max(hi, y[d]);
          }
          range[d] = std::max(hi - lo[d], 1e-12);
        }
        std::vector<pareto::Point> pts;
        for (const auto& y : ys)
          pts.push_back({(y[0] - lo[0]) / range[0], (y[1] - lo[1]) / range[1],
                         (y[2] - lo[2]) / range[2]});
        const auto front = pareto::paretoFilter(pts);
        const auto posts = opt.surrogate().predictBatch(fid, feats);
        std::vector<ScanCandidate> cands(posts.size());
        for (std::size_t k = 0; k < posts.size(); ++k) {
          cands[k].mu.resize(3);
          cands[k].cov = linalg::Matrix(3, 3);
          for (int a = 0; a < 3; ++a) {
            cands[k].mu[a] = (posts[k].mean[a] - lo[a]) / range[a];
            for (int b = 0; b < 3; ++b)
              cands[k].cov(a, b) = posts[k].cov(a, b) / (range[a] * range[b]);
          }
        }
        const pareto::Point ref(3, 1.1);
        const auto z = drawStdNormals(o.mc_samples, 3, rng);
        for (const std::size_t top_k : {std::size_t{0}, obs::kTopK}) {
          const PeipvScan got = scanPeipv(cands, front, ref, z,
                                          penalties[fid], nullptr, top_k);
          expectSameScan(got, exhaustiveScan(cands, front, ref, z,
                                             penalties[fid], nullptr, top_k));
          ++scans;
          pruned += got.evaluated < cands.size();
        }
      }
    }
  }
  EXPECT_GT(scans, 20u);
  EXPECT_GT(pruned, 0u);
}

TEST(Acquisition, RecorderDoesNotMoveThePicks) {
  // With the recorder on, the scan prunes against the k-th best score
  // instead of the argmax; both must pick the same (config, fidelity, peipv)
  // on every path.
  for (const core::OptimizerOptions& o : scanPaths()) {
    std::vector<core::IterationLog> logs[2];
    for (const bool on : {false, true}) {
      obs::recorder().setEnabled(on);
      obs::recorder().clear();
      SpmvFixture f;
      core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
      logs[on] = opt.run().iterations;
    }
    obs::recorder().setEnabled(false);
    obs::recorder().clear();
    ASSERT_EQ(logs[0].size(), logs[1].size());
    ASSERT_FALSE(logs[0].empty());
    for (std::size_t i = 0; i < logs[0].size(); ++i) {
      EXPECT_EQ(logs[0][i].config, logs[1][i].config) << i;
      EXPECT_EQ(logs[0][i].fidelity, logs[1][i].fidelity) << i;
      EXPECT_TRUE(sameBits(logs[0][i].peipv, logs[1][i].peipv)) << i;
    }
  }
}

}  // namespace
}  // namespace cmmfo::core
