#include "exp/harness.h"

#include <cstdlib>

#include "linalg/stats.h"

namespace cmmfo::exp {

BenchmarkContext::BenchmarkContext(bench_suite::Benchmark bm,
                                   std::uint64_t sim_seed)
    : bm_(std::move(bm)) {
  space_ = std::make_unique<hls::DesignSpace>(
      hls::DesignSpace::buildPruned(bm_.kernel, bm_.spec));
  sim_ = std::make_unique<sim::FpgaToolSim>(
      bm_.kernel, sim::DeviceModel::virtex7Vc707(), bm_.sim_params, sim_seed);
  sim_->setDieMap(bm_.die_map);
  gt_ = std::make_unique<sim::GroundTruth>(*space_, *sim_);
}

MethodStats evaluateMethod(BenchmarkContext& ctx,
                           const baselines::DseMethod& method, int repeats,
                           std::uint64_t seed0) {
  MethodStats stats;
  stats.method = method.name();
  std::vector<double> adrs_vals, times, walls;
  for (int r = 0; r < repeats; ++r) {
    const baselines::DseOutcome out =
        method.run(ctx.space(), ctx.sim(), seed0 + 7919ULL * r);
    RunMetrics m;
    m.adrs = ctx.adrsOf(out.selected);
    m.tool_seconds = out.tool_seconds;
    m.wall_seconds = out.wall_seconds;
    m.tool_runs = out.tool_runs;
    m.num_selected = out.selected.size();
    stats.runs.push_back(m);
    adrs_vals.push_back(m.adrs);
    times.push_back(m.tool_seconds);
    walls.push_back(m.wall_seconds);
  }
  stats.adrs_mean = linalg::mean(adrs_vals);
  stats.adrs_std = linalg::sampleStddev(adrs_vals);
  stats.time_mean = linalg::mean(times);
  stats.wall_mean = linalg::mean(walls);
  return stats;
}

int repeatsFromEnv(int def_repeats) {
  if (const char* s = std::getenv("CMMFO_REPEATS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  if (fastModeFromEnv()) return 2;
  return def_repeats;
}

bool fastModeFromEnv() { return std::getenv("CMMFO_FAST") != nullptr; }

}  // namespace cmmfo::exp
