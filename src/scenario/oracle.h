#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hls/design_space.h"
#include "scenario/generator.h"
#include "sim/ground_truth.h"
#include "sim/tool.h"

namespace cmmfo::scenario {

struct OracleOptions {
  /// Refuse to build (return nullptr) when the pruned space exceeds this —
  /// exhaustive enumeration of every fidelity is the whole point of the
  /// oracle, and it must stay cheap enough for CI.
  std::size_t enum_cap = 50000;
  /// Cap on raw-Cartesian enumeration inside auditPruning. When the raw
  /// space is larger, the audit covers a truncated odometer prefix and
  /// reports raw_complete = false.
  std::size_t raw_cap = 200000;
  std::uint64_t sim_seed = 42;
};

/// Result of checking Algorithm 1 against the exhaustively enumerated raw
/// space. Two fronts are audited separately because they test different
/// claims:
///
/// - The COMPATIBLE front (raw-front of configs satisfying Algorithm 1's
///   enumeration premise: every unrolled loop finds each array it indexes
///   banked in the scheme serving that loop's role, bank count tiling the
///   unroll) tests the pruner's enumeration: everything its own premises
///   call good must be eps-covered by the pruned set. A violation here is a
///   pruner bug (lost odometer branch, bad backtracking). This is the gate.
///
/// - The FULL front additionally contains configs the pruner rejects on
///   principle (e.g. unroll over an unpartitioned array: the dual-port
///   BRAM still serves 2 accesses/cycle, so at small factors most of the
///   speedup survives WITHOUT the banking LUT cost, and such points are
///   genuinely non-dominated). Their distance to the pruned set is the
///   measured price of the paper's heuristic — reported, never gated.
struct PruningAudit {
  std::size_t raw_enumerated = 0;
  bool raw_complete = false;
  double eps = 0.0;
  /// Compatible-front coverage (the gate).
  std::size_t compat_front_size = 0;
  std::size_t violations = 0;
  double max_regret = 0.0;
  double mean_regret = 0.0;
  /// Full-front heuristic cost (report-only).
  std::size_t raw_front_size = 0;
  double full_max_regret = 0.0;
  double full_mean_regret = 0.0;
};

/// Exhaustive ground truth for one generated scenario: the pruned design
/// space, a simulator with the scenario's die map installed, per-fidelity
/// reports for every config, the true Pareto set, and oracle-ADRS scoring
/// shared with exp::BenchmarkContext (sim::GroundTruth::adrsOf).
class Oracle {
 public:
  /// nullptr when the pruned space exceeds opts.enum_cap.
  static std::unique_ptr<Oracle> build(const Scenario& sc,
                                       const OracleOptions& opts = {});

  const hls::DesignSpace& space() const { return *space_; }
  const sim::FpgaToolSim& sim() const { return *sim_; }
  /// Mutable overload: DseMethod::run needs to reset/charge accounting.
  sim::FpgaToolSim& sim() { return *sim_; }
  const sim::GroundTruth& groundTruth() const { return *gt_; }
  const OracleOptions& options() const { return opts_; }

  /// Oracle ADRS of a selection of pruned-space config indices against the
  /// true (impl, valid) Pareto set: sim::GroundTruth::adrsOf. 0 means every
  /// true-front point matched.
  double adrsOf(const std::vector<std::size_t>& selected) const {
    return gt_->adrsOf(selected);
  }

  /// ADRS of the front AS SEEN at fidelity f against the true front: 0 at
  /// kImpl by construction; positive at lower fidelities exactly when they
  /// mislead (e.g. die-blind stages on a multi-die scenario).
  double fidelityGap(sim::Fidelity f) const {
    return gt_->adrsOf(gt_->frontIndicesAt(f));
  }

  /// Enumerate the raw Cartesian space (capped) and measure the pruned
  /// space's eps-regret against the raw Pareto front.
  PruningAudit auditPruning(double eps) const;

 private:
  Oracle() = default;

  // Order matters for destruction: sim_ holds a raw pointer into
  // benchmark_->kernel, gt_ reads space_ and sim_.
  std::shared_ptr<const bench_suite::Benchmark> benchmark_;
  OracleOptions opts_;
  std::unique_ptr<hls::DesignSpace> space_;
  std::unique_ptr<sim::FpgaToolSim> sim_;
  std::unique_ptr<sim::GroundTruth> gt_;
};

}  // namespace cmmfo::scenario
