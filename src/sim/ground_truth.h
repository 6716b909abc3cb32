#pragma once

#include <array>

#include "hls/design_space.h"
#include "pareto/dominance.h"
#include "sim/tool.h"

namespace cmmfo::sim {

/// `p` min-max normalized per objective by [lo, hi] (ranges floored at
/// 1e-12): the joint normalization every oracle ADRS is scored in.
pareto::Point normalizeBy(const pareto::Point& p, const std::vector<double>& lo,
                          const std::vector<double>& hi);

/// Exhaustive evaluation of a design space at every fidelity: the oracle
/// ADRS is measured against ("real Pareto set", Sec. V-B) and the data
/// behind Fig. 5's cross-fidelity series. Tool time is NOT charged — this
/// is an offline reference, exactly like the paper's pre-collected
/// exhaustive runs.
class GroundTruth {
 public:
  /// Runs every config's stages in blocks of hls::kBuildGrain configs on
  /// the fork-join pool; the reports, front and ranges equal a sequential
  /// build's bit for bit.
  GroundTruth(const hls::DesignSpace& space, const FpgaToolSim& sim);

  const Report& report(std::size_t config, Fidelity f) const {
    return reports_[config][static_cast<int>(f)];
  }
  std::size_t size() const { return reports_.size(); }

  /// Objectives at impl fidelity; invalid configs excluded from the front.
  bool valid(std::size_t config) const;
  pareto::Point implObjectives(std::size_t config) const;

  /// True Pareto front (impl fidelity, valid configs only).
  const std::vector<pareto::Point>& paretoFront() const { return front_; }
  const std::vector<std::size_t>& paretoIndices() const { return front_idx_; }
  /// Per-objective min and max of the valid impl objectives: the ranges
  /// adrsOf normalizes by.
  const std::vector<double>& rangeLo() const { return lo_; }
  const std::vector<double>& rangeHi() const { return hi_; }

  /// Oracle ADRS (Eq. 11) of a selection of config indices against the
  /// true front: the selection is scored at its TRUE impl objectives
  /// (invalid configs dropped), both sets normalized by the valid impl
  /// ranges, Euclidean distance. A selection with no valid config scores as
  /// the worst corner of the space. 0 means every true-front point matched.
  double adrsOf(const std::vector<std::size_t>& selected) const;

  /// Config indices of the Pareto front AS SEEN at fidelity f: stage-f
  /// objectives over configs whose stage-f report is valid. At kImpl this
  /// is the true front above; at lower fidelities it is what an optimizer
  /// trusting that stage would believe — e.g. die-blind on a multi-die
  /// device. Computed on demand.
  std::vector<std::size_t> frontIndicesAt(Fidelity f) const;

 private:
  std::vector<std::array<Report, kNumFidelities>> reports_;
  std::vector<pareto::Point> front_;
  std::vector<std::size_t> front_idx_;
  std::vector<double> lo_, hi_;  // valid impl-objective ranges
};

}  // namespace cmmfo::sim
