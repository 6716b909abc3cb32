#include "sim/ground_truth.h"

namespace cmmfo::sim {

GroundTruth::GroundTruth(const hls::DesignSpace& space, const FpgaToolSim& sim) {
  reports_.resize(space.size());
  for (std::size_t i = 0; i < space.size(); ++i)
    for (int f = 0; f < kNumFidelities; ++f)
      reports_[i][f] = sim.run(space.config(i), static_cast<Fidelity>(f));

  pareto::ParetoFront front;
  for (std::size_t i = 0; i < space.size(); ++i)
    if (valid(i)) front.insert(implObjectives(i), i);
  front_ = front.points();
  front_idx_ = front.ids();
}

namespace {
pareto::ParetoFront frontOf(
    const std::vector<std::array<Report, kNumFidelities>>& reports,
    Fidelity f) {
  pareto::ParetoFront front;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Report& r = reports[i][static_cast<int>(f)];
    if (r.valid) front.insert(r.objectives(), i);
  }
  return front;
}
}  // namespace

std::vector<std::size_t> GroundTruth::frontIndicesAt(Fidelity f) const {
  return frontOf(reports_, f).ids();
}

bool GroundTruth::valid(std::size_t config) const {
  return reports_[config][static_cast<int>(Fidelity::kImpl)].valid;
}

pareto::Point GroundTruth::implObjectives(std::size_t config) const {
  return reports_[config][static_cast<int>(Fidelity::kImpl)].objectives();
}

}  // namespace cmmfo::sim
