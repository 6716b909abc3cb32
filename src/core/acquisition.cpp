#include "core/acquisition.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "linalg/cholesky.h"
#include "pareto/hypervolume.h"
#include "util/fork_join.h"

namespace cmmfo::core {

std::vector<std::vector<double>> drawStdNormals(std::size_t samples,
                                                std::size_t m, rng::Rng& rng) {
  std::vector<std::vector<double>> z(samples, std::vector<double>(m));
  for (auto& row : z)
    for (auto& v : row) v = rng.normal();
  return z;
}

void eipvSamplesInto(const gp::Vec& mu, const linalg::Matrix& cov,
                     const std::vector<std::vector<double>>& std_normals,
                     linalg::Cholesky& chol, std::vector<pareto::Point>& out) {
  const std::size_t m = mu.size();
  assert(cov.rows() == m && cov.cols() == m);
  assert(!std_normals.empty() && std_normals[0].size() == m);

  // A (near-)zero covariance is a point mass at mu: answer exactly rather
  // than sampling jitter noise. So is one the jitter ladder cannot factor.
  double max_var = 0.0;
  for (std::size_t i = 0; i < m; ++i) max_var = std::max(max_var, cov(i, i));
  if (max_var < 1e-24 || !chol.refactorize(cov, 1e-12)) {
    out.resize(1);
    out[0].assign(mu.begin(), mu.end());
    return;
  }
  out.resize(std_normals.size());
  for (std::size_t s = 0; s < out.size(); ++s)
    linalg::mvnSample(mu, chol, std_normals[s], out[s]);
}

std::vector<pareto::Point> eipvSamples(
    const gp::Vec& mu, const linalg::Matrix& cov,
    const std::vector<std::vector<double>>& std_normals) {
  linalg::Cholesky chol;
  std::vector<pareto::Point> y;
  eipvSamplesInto(mu, cov, std_normals, chol, y);
  return y;
}

double eipvOfSamples(const std::vector<pareto::Point>& samples,
                     const std::vector<pareto::Point>& front,
                     const pareto::Point& ref) {
  double acc = 0.0;
  for (const auto& y : samples)
    acc += pareto::hypervolumeImprovement(y, front, ref);
  return acc / static_cast<double>(samples.size());
}

double eipvBound(const std::vector<pareto::Point>& samples,
                 const pareto::Point& ref) {
  double acc = 0.0;
  for (const auto& y : samples) acc += pareto::boxVolume(y, ref);
  return acc / static_cast<double>(samples.size());
}

double mcEipv(const gp::Vec& mu, const linalg::Matrix& cov,
              const std::vector<pareto::Point>& front,
              const pareto::Point& ref,
              const std::vector<std::vector<double>>& std_normals) {
  return eipvOfSamples(eipvSamples(mu, cov, std_normals), front, ref);
}

namespace {
/// A scan of more than kScanChunk candidates walks them kScanChunk at a
/// time, with kScanTask candidates per fork-join task; a smaller scan runs
/// inline, one candidate per step, pruning against the freshest argmax.
constexpr std::size_t kScanChunk = 64;
constexpr std::size_t kScanTask = 4;
}  // namespace

PeipvScan scanPeipv(const std::vector<ScanCandidate>& candidates,
                    const std::vector<pareto::Point>& front,
                    const pareto::Point& ref,
                    const std::vector<std::vector<double>>& std_normals,
                    double penalty, const double* incumbent,
                    std::size_t top_k) {
  assert(penalty > 0.0);
  const std::size_t n = candidates.size();
  PeipvScan out;
  bool have_best = incumbent != nullptr;
  double best = have_best ? *incumbent : 0.0;
  // The top_k best peipv values so far, descending: a candidate whose bound
  // does not beat the k-th cannot enter the top-k, because the earlier
  // candidates holding those values win a tie in the stable ranking.
  std::vector<double> kth;
  // A NaN score breaks the ordering the top-k pruning argument rests on.
  bool prune = true;
  std::vector<ScanScore> scored;
  std::vector<double> eipv(n);
  std::vector<char> ran(n, 0);

  const std::size_t step = n > kScanChunk ? kScanChunk : 1;
  for (std::size_t c0 = 0; c0 < n; c0 += step) {
    const std::size_t c1 = std::min(n, c0 + step);
    // Skip a candidate only if its bound reaches neither the argmax nor the
    // top-k, judged on the state at the start of the chunk.
    const bool can_prune = prune && have_best && kth.size() == top_k;
    const double threshold =
        top_k == 0 || !can_prune ? best : std::min(best, kth.back());
    util::forkJoin((c1 - c0 + kScanTask - 1) / kScanTask, [&](std::size_t t) {
      const std::size_t lo = c0 + t * kScanTask;
      const std::size_t hi = std::min(c1, lo + kScanTask);
      // Each thread draws every candidate into the same storage.
      thread_local linalg::Cholesky chol;
      thread_local std::vector<pareto::Point> y;
      for (std::size_t i = lo; i < hi; ++i) {
        eipvSamplesInto(candidates[i].mu, candidates[i].cov, std_normals, chol,
                        y);
        if (can_prune && penalty * eipvBound(y, ref) <= threshold) continue;
        eipv[i] = eipvOfSamples(y, front, ref);
        ran[i] = 1;
      }
    });
    for (std::size_t i = c0; i < c1; ++i) {
      if (!ran[i]) continue;
      const double peipv = penalty * eipv[i];
      ++out.evaluated;
      if (!have_best || peipv > best) {
        have_best = true;
        best = peipv;
        out.improved = true;
        out.best = i;
        out.peipv = peipv;
      }
      if (top_k == 0) continue;
      scored.push_back({i, eipv[i], peipv});
      if (std::isnan(peipv)) {
        prune = false;
        continue;
      }
      kth.insert(std::upper_bound(kth.begin(), kth.end(), peipv,
                                  std::greater<double>()),
                 peipv);
      if (kth.size() > top_k) kth.pop_back();
    }
  }
  if (top_k > 0) {
    std::stable_sort(scored.begin(), scored.end(),
                     [](const ScanScore& a, const ScanScore& b) {
                       return a.peipv > b.peipv;
                     });
    if (scored.size() > top_k) scored.resize(top_k);
    out.top = std::move(scored);
  }
  return out;
}

double costPenalty(double t_this_fidelity, double t_impl) {
  assert(t_this_fidelity > 0.0);
  return t_impl / t_this_fidelity;
}

namespace {
double normPdf(double z) {
  return std::exp(-0.5 * z * z) * 0.3989422804014327;  // 1/sqrt(2 pi)
}
double normCdf(double z) { return 0.5 * std::erfc(-z * 0.70710678118654752); }
}  // namespace

double expectedImprovement(double mu, double sigma, double best, double xi) {
  if (sigma < 1e-12) return std::max(best - xi - mu, 0.0);
  const double lambda = (best - xi - mu) / sigma;
  return sigma * (lambda * normCdf(lambda) + normPdf(lambda));
}

}  // namespace cmmfo::core
