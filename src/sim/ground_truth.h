#pragma once

#include <array>

#include "hls/design_space.h"
#include "pareto/dominance.h"
#include "sim/tool.h"

namespace cmmfo::sim {

/// Exhaustive evaluation of a design space at every fidelity: the oracle
/// ADRS is measured against ("real Pareto set", Sec. V-B) and the data
/// behind Fig. 5's cross-fidelity series. Tool time is NOT charged — this
/// is an offline reference, exactly like the paper's pre-collected
/// exhaustive runs.
class GroundTruth {
 public:
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
};

}  // namespace cmmfo::sim
