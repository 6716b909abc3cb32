#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench_suite/benchmarks.h"

namespace cmmfo::scenario {

/// Knobs of the procedural kernel generator. A scenario — kernel IR,
/// directive space, die map, simulator params — is a pure function of this
/// struct: same params, bit-identical scenario, on every platform (the
/// generator draws only from rng::Rng).
struct GeneratorParams {
  std::uint64_t seed = 1;
  /// Dies on the simulated device; 1 = classic single-die (die model off).
  /// With more dies the generator spreads loop nests and arrays so at least
  /// one loop-array pair crosses a die boundary.
  int num_dies = 1;
  /// Desired RAW Cartesian size of the directive space. The generator
  /// deterministically trims/grows per-site option lists toward it; the
  /// achieved size is within a small factor when the structural floor and
  /// ceiling allow (tiny kernels cannot reach 1e6; see docs/scenarios.md).
  double target_raw_size = 1e4;

  // ---- Structural richness. ----
  int max_top_loops = 2;  ///< loop nests (>= 1)
  int max_depth = 3;      ///< max nesting depth of each nest
  int max_arrays = 3;     ///< arrays (>= 1)
  int max_factor = 16;    ///< unroll/partition factor ceiling
  double child_prob = 0.55;       ///< chance a loop gets a child (per level)
  double recurrence_prob = 0.25;  ///< chance an innermost loop carries a dep
  double pipeline_prob = 0.6;     ///< chance an innermost loop offers PIPELINE

  bool operator==(const GeneratorParams&) const = default;
};

/// A generated benchmark plus its provenance. The benchmark rides a
/// shared_ptr because FpgaToolSim keeps a raw pointer into the kernel:
/// anything building a simulator from a scenario must co-own the benchmark
/// or the kernel dangles.
struct Scenario {
  std::string name;  ///< canonical "scenario:<seed>[:dies=d][:size=S]"
  GeneratorParams params;
  std::shared_ptr<const bench_suite::Benchmark> benchmark;

  const hls::Kernel& kernel() const { return benchmark->kernel; }
  const hls::SpaceSpec& spec() const { return benchmark->spec; }
};

/// Generate deterministically from params. The returned kernel always
/// passes Kernel::validate() and the spec round-trips bitwise through
/// hls::formatSpaceSpec / parseSpaceSpec.
Scenario generate(const GeneratorParams& p);

/// Canonical name: "scenario:<seed>", plus ":dies=<d>" when num_dies > 1
/// and ":size=<raw>" when target_raw_size differs from the default. Only
/// those three knobs are name-encodable; the structural knobs must stay at
/// their defaults for a scenario to be reachable by name (which is what the
/// server's journal-resume path needs).
std::string scenarioName(const GeneratorParams& p);

/// True when `name` uses the scenario grammar (i.e. starts "scenario:").
bool isScenarioName(const std::string& name);

/// Parse a scenario name and generate it. Throws std::invalid_argument on
/// a malformed name (bad seed, unknown key, dies < 1, size < 1).
Scenario generateFromName(const std::string& name);

/// The one benchmark-name resolver of the CLI, the server and the benches:
/// a paper-suite or extended-suite name, or a scenario name. Throws
/// std::invalid_argument on an unknown or malformed name.
bench_suite::Benchmark resolveBenchmark(const std::string& name);

}  // namespace cmmfo::scenario
