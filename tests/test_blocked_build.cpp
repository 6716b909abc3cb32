// The blocked context build: Algorithm 1's cross product, the feature
// encoding and the exhaustive ground truth run in blocks of hls::kBuildGrain
// on the fork-join pool. Each test compares the build with a sequential
// reference kept in this file, bit for bit and in order. PrunerBlocked*,
// GroundTruthBlocked* and DesignSpaceBlocked* run under TSan
// (run_benches.sh --tsan-smoke).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_suite/benchmarks.h"
#include "bench_suite/extended_benchmarks.h"
#include "hls/design_space.h"
#include "hls/pruner.h"
#include "pareto/dominance.h"
#include "scenario/generator.h"
#include "sim/ground_truth.h"
#include "sim/tool.h"

namespace cmmfo {
namespace {

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Algorithm 1's cross product walked on one thread: nested odometers over
/// trees x free loops x pipeline choices (pipeline fastest), each step a
/// fresh configuration, kept when its hash is new.
std::vector<hls::DirectiveConfig> sequentialPruned(const hls::Kernel& kernel,
                                                   const hls::SpaceSpec& spec,
                                                   hls::PruneStats* stats) {
  const std::vector<hls::MergedTree> trees = hls::buildMergedTrees(kernel);
  std::vector<std::vector<hls::GroupAssign>> per_tree;
  for (const auto& t : trees)
    per_tree.push_back(hls::enumerateGroup(kernel, spec, t, hls::kMaxPerGroup));

  std::vector<hls::LoopId> free_loops, pipe_loops;
  for (std::size_t l = 0; l < kernel.numLoops(); ++l) {
    const auto id = static_cast<hls::LoopId>(l);
    const bool in_tree = std::any_of(trees.begin(), trees.end(), [&](auto& t) {
      return std::find(t.loops.begin(), t.loops.end(), id) != t.loops.end();
    });
    if (!in_tree && spec.loops[l].unroll_factors.size() > 1)
      free_loops.push_back(id);
  }
  for (std::size_t l = 0; l < kernel.numLoops(); ++l)
    if (spec.loops[l].allow_pipeline)
      pipe_loops.push_back(static_cast<hls::LoopId>(l));

  std::vector<hls::DirectiveConfig> configs;
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::size_t> tree_idx(per_tree.size(), 0);
  std::vector<std::size_t> free_idx(free_loops.size(), 0);
  std::vector<std::size_t> pipe_idx(pipe_loops.size(), 0);
  for (;;) {
    hls::DirectiveConfig cfg;
    cfg.loops.resize(kernel.numLoops());
    cfg.arrays.resize(kernel.numArrays());
    for (std::size_t t = 0; t < per_tree.size(); ++t) {
      const hls::GroupAssign& ga = per_tree[t][tree_idx[t]];
      for (const auto& [l, u] : ga.unroll) cfg.loops[l].unroll = u;
      for (const auto& [a, d] : ga.part) cfg.arrays[a] = d;
    }
    for (std::size_t i = 0; i < free_loops.size(); ++i)
      cfg.loops[free_loops[i]].unroll =
          spec.loops[free_loops[i]].unroll_factors[free_idx[i]];
    for (std::size_t i = 0; i < pipe_loops.size(); ++i)
      if (pipe_idx[i] > 0) {
        cfg.loops[pipe_loops[i]].pipeline = true;
        cfg.loops[pipe_loops[i]].ii =
            spec.loops[pipe_loops[i]].pipeline_iis[pipe_idx[i] - 1];
      }
    if (seen.insert(cfg.hash()).second) configs.push_back(std::move(cfg));

    std::size_t i = 0;
    for (; i < pipe_loops.size(); ++i) {
      if (++pipe_idx[i] <= spec.loops[pipe_loops[i]].pipeline_iis.size())
        break;
      pipe_idx[i] = 0;
    }
    if (i < pipe_loops.size()) continue;
    for (i = 0; i < free_loops.size(); ++i) {
      if (++free_idx[i] < spec.loops[free_loops[i]].unroll_factors.size())
        break;
      free_idx[i] = 0;
    }
    if (i < free_loops.size()) continue;
    for (i = 0; i < per_tree.size(); ++i) {
      if (++tree_idx[i] < per_tree[i].size()) break;
      tree_idx[i] = 0;
    }
    if (i == per_tree.size()) break;
  }
  stats->raw_size = spec.rawSize();
  stats->pruned_size = configs.size();
  return configs;
}

void expectSamePruned(const hls::Kernel& kernel, const hls::SpaceSpec& spec,
                      const std::string& name) {
  hls::PruneStats want_stats, got_stats;
  const auto want = sequentialPruned(kernel, spec, &want_stats);
  const auto got = hls::prunedConfigs(kernel, spec, &got_stats);
  ASSERT_EQ(got.size(), want.size()) << name;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_TRUE(got[i] == want[i]) << name << " config " << i;
  EXPECT_TRUE(sameBits(got_stats.raw_size, want_stats.raw_size)) << name;
  EXPECT_EQ(got_stats.pruned_size, want_stats.pruned_size) << name;
}

TEST(PrunerBlocked, EverySuiteBenchmarkMatchesTheSequentialWalk) {
  for (const char* name :
       {"gemm", "sort_radix", "spmv_ellpack", "spmv_crs", "stencil3d",
        "ismart2", "fft", "nw", "viterbi", "md_knn", "kmp", "aes"}) {
    const bench_suite::Benchmark bm = bench_suite::makeAnyBenchmark(name);
    expectSamePruned(bm.kernel, bm.spec, name);
  }
}

TEST(PrunerBlocked, ScenariosMatchTheSequentialWalk) {
  for (const char* dies : {"", ":dies=2"})
    for (int seed = 1; seed <= 12; ++seed)
      for (const char* size : {"", ":size=1000000"}) {
        const std::string name =
            "scenario:" + std::to_string(seed) + dies + size;
        const scenario::Scenario sc = scenario::generateFromName(name);
        expectSamePruned(sc.kernel(), sc.spec(), name);
      }
}

/// What GroundTruth holds, computed on one thread.
struct SequentialGroundTruth {
  std::vector<std::array<sim::Report, sim::kNumFidelities>> reports;
  std::vector<pareto::Point> front;
  std::vector<std::size_t> front_idx;
  std::vector<double> lo, hi;
};

SequentialGroundTruth sequentialGroundTruth(const hls::DesignSpace& space,
                                            const sim::FpgaToolSim& sim) {
  SequentialGroundTruth gt;
  for (std::size_t i = 0; i < space.size(); ++i)
    gt.reports.push_back(sim.runStages(space.config(i)));
  const int impl = static_cast<int>(sim::Fidelity::kImpl);
  pareto::ParetoFront front;
  gt.lo.assign(sim::kNumObjectives, 1e300);
  gt.hi.assign(sim::kNumObjectives, -1e300);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const sim::Report& r = gt.reports[i][impl];
    if (!r.valid) continue;
    front.insert(r.objectives(), i);
    const pareto::Point y = r.objectives();
    for (int m = 0; m < sim::kNumObjectives; ++m) {
      gt.lo[m] = std::min(gt.lo[m], y[m]);
      gt.hi[m] = std::max(gt.hi[m], y[m]);
    }
  }
  gt.front = front.points();
  gt.front_idx = front.ids();
  return gt;
}

bool sameReport(const sim::Report& a, const sim::Report& b) {
  return a.valid == b.valid && sameBits(a.power_w, b.power_w) &&
         sameBits(a.delay_us, b.delay_us) &&
         sameBits(a.lut_util, b.lut_util) &&
         sameBits(a.latency_cycles, b.latency_cycles) &&
         sameBits(a.clock_ns, b.clock_ns) &&
         sameBits(a.tool_seconds, b.tool_seconds);
}

void expectSameGroundTruth(const bench_suite::Benchmark& bm,
                           const hls::DesignSpace& space,
                           const std::string& name) {
  sim::FpgaToolSim sim(bm.kernel, sim::DeviceModel::virtex7Vc707(),
                       bm.sim_params, 42);
  sim.setDieMap(bm.die_map);
  const SequentialGroundTruth want = sequentialGroundTruth(space, sim);
  const sim::GroundTruth got(space, sim);
  ASSERT_EQ(got.size(), want.reports.size()) << name;
  for (std::size_t i = 0; i < got.size(); ++i)
    for (int f = 0; f < sim::kNumFidelities; ++f)
      ASSERT_TRUE(sameReport(got.report(i, static_cast<sim::Fidelity>(f)),
                             want.reports[i][f]))
          << name << " config " << i << " fidelity " << f;
  ASSERT_EQ(got.paretoFront().size(), want.front.size()) << name;
  for (std::size_t k = 0; k < want.front.size(); ++k)
    EXPECT_TRUE(sameBits(got.paretoFront()[k], want.front[k]))
        << name << " front point " << k;
  EXPECT_EQ(got.paretoIndices(), want.front_idx) << name;
  EXPECT_TRUE(sameBits(got.rangeLo(), want.lo)) << name;
  EXPECT_TRUE(sameBits(got.rangeHi(), want.hi)) << name;
}

// sort_radix is 18 whole blocks, ismart2 ten blocks of 1028-1029 configs
// (its size is no multiple of the grain), spmv_crs one inline block.
TEST(GroundTruthBlocked, MatchesTheSequentialBuild) {
  for (const char* name : {"sort_radix", "ismart2", "spmv_crs"}) {
    const bench_suite::Benchmark bm = bench_suite::makeBenchmark(name);
    const auto space = hls::DesignSpace::buildPruned(bm.kernel, bm.spec);
    const std::string n = name;
    if (n == "sort_radix") EXPECT_EQ(space.size(), 18 * hls::kBuildGrain);
    if (n == "ismart2") {
      EXPECT_GE(space.size(), 2 * hls::kBuildGrain);
      EXPECT_NE(space.size() % hls::kBuildGrain, 0u);
    }
    if (n == "spmv_crs") EXPECT_LT(space.size(), 2 * hls::kBuildGrain);
    expectSameGroundTruth(bm, space, n);
  }
}

// A multi-die scenario: the impl stage routes over the die map, so the
// blocked build must hand every block the same die-aware simulator.
TEST(GroundTruthBlocked, MultiDieScenarioMatchesTheSequentialBuild) {
  const scenario::Scenario sc =
      scenario::generateFromName("scenario:6:dies=2:size=1000000");
  const auto space = hls::DesignSpace::buildPruned(sc.kernel(), sc.spec());
  EXPECT_TRUE(sc.benchmark->die_map.enabled());
  EXPECT_GE(space.size(), 2 * hls::kBuildGrain);
  expectSameGroundTruth(*sc.benchmark, space, sc.name);
}

TEST(DesignSpaceBlocked, FeaturesEqualTheEncoderOutput) {
  const auto expectEncoded = [](const hls::DesignSpace& space,
                                const std::string& name) {
    ASSERT_EQ(space.allFeatures().size(), space.size()) << name;
    for (std::size_t i = 0; i < space.size(); ++i)
      ASSERT_TRUE(sameBits(space.features(i),
                           space.encoder().encode(space.config(i))))
          << name << " config " << i;
  };
  for (const char* name : {"sort_radix", "ismart2", "spmv_crs"}) {
    const bench_suite::Benchmark bm = bench_suite::makeBenchmark(name);
    expectEncoded(hls::DesignSpace::buildPruned(bm.kernel, bm.spec), name);
    expectEncoded(hls::DesignSpace::buildRaw(bm.kernel, bm.spec, 5000),
                  std::string(name) + " raw");
  }
}

}  // namespace
}  // namespace cmmfo
