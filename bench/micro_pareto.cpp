// google-benchmark microbenchmarks for the Pareto kernels: dominance
// filtering, 2-D/3-D hypervolume, hypervolume improvement, the Fig. 6
// cell decomposition and one fidelity's Monte-Carlo EIPV scan.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "core/acquisition.h"
#include "pareto/cells.h"
#include "pareto/dominance.h"
#include "pareto/hypervolume.h"
#include "rng/rng.h"

using namespace cmmfo;
using namespace cmmfo::pareto;

namespace {

std::vector<Point> randomPoints(std::size_t n, std::size_t m,
                                std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<Point> pts(n, Point(m));
  for (auto& p : pts)
    for (auto& v : p) v = rng.uniform();
  return pts;
}

void BM_ParetoFilter(benchmark::State& state) {
  const auto pts = randomPoints(state.range(0), 3, 1);
  for (auto _ : state) benchmark::DoNotOptimize(paretoFilter(pts));
}
BENCHMARK(BM_ParetoFilter)->Arg(64)->Arg(256)->Arg(1024);

void BM_Hypervolume2d(benchmark::State& state) {
  const auto pts = randomPoints(state.range(0), 2, 2);
  const Point ref = {1.1, 1.1};
  for (auto _ : state) benchmark::DoNotOptimize(hypervolume(pts, ref));
}
BENCHMARK(BM_Hypervolume2d)->Arg(32)->Arg(128);

void BM_Hypervolume3d(benchmark::State& state) {
  const auto pts = randomPoints(state.range(0), 3, 3);
  const Point ref = {1.1, 1.1, 1.1};
  for (auto _ : state) benchmark::DoNotOptimize(hypervolume(pts, ref));
}
BENCHMARK(BM_Hypervolume3d)->Arg(32)->Arg(128);

void BM_HviExclusive(benchmark::State& state) {
  const auto front = paretoFilter(randomPoints(state.range(0), 3, 4));
  const Point ref = {1.1, 1.1, 1.1};
  rng::Rng rng(5);
  const Point y = {rng.uniform(), rng.uniform(), rng.uniform()};
  for (auto _ : state)
    benchmark::DoNotOptimize(hypervolumeImprovement(y, front, ref));
}
BENCHMARK(BM_HviExclusive)->Arg(64)->Arg(256);

void BM_CellDecomposition2d(benchmark::State& state) {
  const auto front = paretoFilter(randomPoints(state.range(0), 2, 6));
  const Point ref = {1.1, 1.1};
  for (auto _ : state) benchmark::DoNotOptimize(nonDominatedCells(front, ref));
}
BENCHMARK(BM_CellDecomposition2d)->Arg(16)->Arg(64);

void BM_ExactEipv2d(benchmark::State& state) {
  const auto front = paretoFilter(randomPoints(state.range(0), 2, 7));
  const Point ref = {1.1, 1.1};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exactEipvIndependent({0.4, 0.4}, {0.1, 0.1}, front, ref));
}
BENCHMARK(BM_ExactEipv2d)->Arg(16)->Arg(64);

// One fidelity's acquisition scan at the optimizer's defaults: 400
// candidates x 32 MC samples against a 3-objective front. Arg 0 is the
// exhaustive sequential loop (mcEipv for every candidate), arg 1 the
// bound-pruned parallel core::scanPeipv; `evaluated` is the share of
// candidates whose HVI sweeps ran.
void BM_McEipvScan(benchmark::State& state) {
  const std::size_t m = 3;
  const auto front = paretoFilter(randomPoints(64, m, 8));
  const Point ref(m, 1.1);
  rng::Rng rng(9);
  const auto z = core::drawStdNormals(32, m, rng);
  std::vector<core::ScanCandidate> cands(400);
  for (auto& c : cands) {
    c.mu.resize(m);
    c.cov = linalg::Matrix(m, m);
    for (std::size_t d = 0; d < m; ++d) {
      c.mu[d] = 0.2 + 0.8 * rng.uniform();
      c.cov(d, d) = 0.002 + 0.02 * rng.uniform();
    }
    c.cov(0, 1) = c.cov(1, 0) = 0.3 * std::sqrt(c.cov(0, 0) * c.cov(1, 1));
  }
  const double penalty = 2.0;
  std::size_t evaluated = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      double best = -1.0;
      for (const auto& c : cands)
        best = std::max(best, penalty * core::mcEipv(c.mu, c.cov, front, ref, z));
      benchmark::DoNotOptimize(best);
      evaluated = cands.size();
    } else {
      const core::PeipvScan r =
          core::scanPeipv(cands, front, ref, z, penalty, nullptr, 0);
      benchmark::DoNotOptimize(r.peipv);
      evaluated = r.evaluated;
    }
  }
  state.counters["evaluated"] =
      static_cast<double>(evaluated) / static_cast<double>(cands.size());
}
BENCHMARK(BM_McEipvScan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
