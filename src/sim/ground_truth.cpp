#include "sim/ground_truth.h"

#include <algorithm>

#include "pareto/adrs.h"
#include "util/fork_join.h"

namespace cmmfo::sim {

pareto::Point normalizeBy(const pareto::Point& p, const std::vector<double>& lo,
                          const std::vector<double>& hi) {
  pareto::Point q(p.size());
  for (std::size_t m = 0; m < p.size(); ++m) {
    const double range = std::max(hi[m] - lo[m], 1e-12);
    q[m] = (p[m] - lo[m]) / range;
  }
  return q;
}

GroundTruth::GroundTruth(const hls::DesignSpace& space, const FpgaToolSim& sim) {
  // runStages is const and reads only the config, so blocks of configs run
  // on the fork-join pool; the front and the ranges below stay serial.
  reports_.resize(space.size());
  util::forBlocks(space.size(), hls::kBuildGrain,
                  [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                      reports_[i] = sim.runStages(space.config(i));
                  });

  pareto::ParetoFront front;
  for (std::size_t i = 0; i < space.size(); ++i)
    if (valid(i)) front.insert(implObjectives(i), i);
  front_ = front.points();
  front_idx_ = front.ids();

  lo_.assign(kNumObjectives, 1e300);
  hi_.assign(kNumObjectives, -1e300);
  for (std::size_t i = 0; i < size(); ++i) {
    if (!valid(i)) continue;
    const pareto::Point y = implObjectives(i);
    for (int m = 0; m < kNumObjectives; ++m) {
      lo_[m] = std::min(lo_[m], y[m]);
      hi_[m] = std::max(hi_[m], y[m]);
    }
  }
}

double GroundTruth::adrsOf(const std::vector<std::size_t>& selected) const {
  std::vector<pareto::Point> learned;
  for (std::size_t i : selected)
    if (valid(i)) learned.push_back(normalizeBy(implObjectives(i), lo_, hi_));
  learned = pareto::paretoFilter(learned);
  if (learned.empty()) learned.push_back(pareto::Point(kNumObjectives, 1.0));

  std::vector<pareto::Point> reference;
  for (const pareto::Point& p : front_)
    reference.push_back(normalizeBy(p, lo_, hi_));
  return pareto::adrs(reference, learned, pareto::AdrsDistance::kEuclidean);
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
