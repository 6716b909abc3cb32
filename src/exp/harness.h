#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "baselines/methods.h"
#include "bench_suite/benchmarks.h"
#include "hls/design_space.h"
#include "sim/ground_truth.h"
#include "sim/tool.h"

namespace cmmfo::exp {

/// Pruned spaces larger than this are not enumerated exhaustively by
/// enumerableContext: the ground truth runs every config at every fidelity.
constexpr std::size_t kEnumCap = 50000;

/// Everything needed to evaluate methods on one benchmark: the pruned
/// design space, the simulated tool and the exhaustive ground truth.
/// Construction is the expensive part; reuse across methods and repeats.
/// Neither copyable nor movable: the simulator and the space's encoder
/// point into the context's own benchmark.
class BenchmarkContext {
 public:
  explicit BenchmarkContext(bench_suite::Benchmark bm,
                            std::uint64_t sim_seed = 42);
  BenchmarkContext(const BenchmarkContext&) = delete;
  BenchmarkContext& operator=(const BenchmarkContext&) = delete;

  const hls::DesignSpace& space() const { return *space_; }
  sim::FpgaToolSim& sim() { return *sim_; }
  const sim::GroundTruth& groundTruth() const { return *gt_; }
  const bench_suite::Benchmark& benchmark() const { return bm_; }

  /// ADRS (Eq. 11) of a method's proposed configurations against the true
  /// Pareto set: sim::GroundTruth::adrsOf.
  double adrsOf(const std::vector<std::size_t>& selected) const {
    return gt_->adrsOf(selected);
  }

 private:
  friend std::unique_ptr<BenchmarkContext> enumerableContext(
      bench_suite::Benchmark bm, std::size_t enum_cap);
  /// Stops after pruning, leaving sim_ and gt_ null, when the pruned space
  /// has more than `enum_cap` configs.
  BenchmarkContext(bench_suite::Benchmark bm, std::uint64_t sim_seed,
                   std::size_t enum_cap);

  bench_suite::Benchmark bm_;
  std::unique_ptr<hls::DesignSpace> space_;
  std::unique_ptr<sim::FpgaToolSim> sim_;
  std::unique_ptr<sim::GroundTruth> gt_;
};

/// The context with simulator seed 42, or nullptr, before any simulation,
/// when the pruned space has more than `enum_cap` configs.
std::unique_ptr<BenchmarkContext> enumerableContext(
    bench_suite::Benchmark bm, std::size_t enum_cap = kEnumCap);

struct RunMetrics {
  double adrs = 0.0;
  double tool_seconds = 0.0;  // charged tool time (sum over flows)
  double wall_seconds = 0.0;  // simulated elapsed time on the worker farm
  int tool_runs = 0;
  std::size_t num_selected = 0;
};

struct MethodStats {
  std::string method;
  double adrs_mean = 0.0;
  double adrs_std = 0.0;   // sample std over repeats
  double time_mean = 0.0;  // charged tool seconds
  double wall_mean = 0.0;  // simulated wall-clock seconds
  std::vector<RunMetrics> runs;
};

/// Run `repeats` independent seeds of a method and aggregate (Sec. V-B:
/// "we run 10 tests on each benchmark and the results are averages").
MethodStats evaluateMethod(BenchmarkContext& ctx,
                           const baselines::DseMethod& method, int repeats,
                           std::uint64_t seed0 = 1000);

/// Environment-variable knobs shared by the bench binaries:
///   CMMFO_REPEATS  — repeats per method (default `def_repeats`)
///   CMMFO_FAST     — if set, shrink everything for a quick smoke pass
int repeatsFromEnv(int def_repeats);
bool fastModeFromEnv();

}  // namespace cmmfo::exp
