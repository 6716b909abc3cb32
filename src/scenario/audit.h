#pragma once

#include <cstddef>

#include "bench_suite/benchmarks.h"
#include "sim/ground_truth.h"
#include "sim/tool.h"

namespace cmmfo::scenario {

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

/// Enumerate `bm`'s raw Cartesian space (at most `raw_cap` configs; when
/// the raw space is larger the audit covers a truncated odometer prefix and
/// reports raw_complete = false), run it at impl on `tool`, and measure the
/// eps-regret of the pruned space behind `gt` against the raw Pareto front.
PruningAudit auditPruning(const bench_suite::Benchmark& bm,
                          const sim::FpgaToolSim& tool,
                          const sim::GroundTruth& gt, double eps,
                          std::size_t raw_cap = 200000);

/// ADRS of the front AS SEEN at fidelity f against the true front: 0 at
/// kImpl by construction; positive at lower fidelities exactly when they
/// mislead (e.g. die-blind stages on a multi-die scenario).
double fidelityGap(const sim::GroundTruth& gt, sim::Fidelity f);

}  // namespace cmmfo::scenario
