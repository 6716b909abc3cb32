#include "scenario/audit.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "hls/design_space.h"
#include "hls/pruner.h"
#include "pareto/dominance.h"

namespace cmmfo::scenario {

namespace {

/// Algorithm 1's ENUMERATION premise, independently re-derived from the
/// paper's rules (NOT from the enumerator's code — the audit exists to
/// catch enumerator bugs) and stricter than hls::isCompatibleConfig:
///
/// - cyclic/block banking: every unrolled loop must find each array it
///   indexes banked in the scheme serving that loop's own access role,
///   with the bank count tiling the unroll factor. isCompatibleConfig
///   also admits wrong-role banking (the perf model charges it instead of
///   rejecting it, and backtracking can derive it for secondary arrays
///   under mixed-role access), but the enumerator never unrolls a
///   wrong-role loop from a seed array — so wrong-role points do not
///   belong in the coverage gate.
/// - complete banking: "pays only when all the parallelism is used" — the
///   enumerator emits it solely as the whole-merged-tree corner with every
///   tree loop at its maximum spec unroll, so a complete array requires
///   its indexing loops maxed out and every co-indexed array complete too.
bool premiseAccepts(const hls::Kernel& k, const hls::SpaceSpec& spec,
                    const hls::DirectiveConfig& cfg) {
  for (std::size_t ai = 0; ai < cfg.arrays.size(); ++ai) {
    const auto a = static_cast<hls::ArrayId>(ai);
    const hls::ArrayDirective& ad = cfg.arrays[ai];
    if (ad.type == hls::PartitionType::kComplete) {
      for (hls::LoopId l : k.loopsIndexingArray(a)) {
        const std::vector<int>& ufs = spec.loops[l].unroll_factors;
        if (cfg.loops[l].unroll !=
            *std::max_element(ufs.begin(), ufs.end()))
          return false;
        for (std::size_t bi = 0; bi < cfg.arrays.size(); ++bi) {
          if (bi == ai ||
              cfg.arrays[bi].type == hls::PartitionType::kComplete)
            continue;
          const std::vector<hls::LoopId> lb =
              k.loopsIndexingArray(static_cast<hls::ArrayId>(bi));
          if (std::find(lb.begin(), lb.end(), l) != lb.end()) return false;
        }
      }
    } else {
      for (hls::LoopId l : k.loopsIndexingArray(a)) {
        if (cfg.loops[l].unroll <= 1) continue;
        if (!hls::unrollCompatible(k, l, a, ad.type))
          return false;  // covers kNone and wrong-role cyclic/block
        if (ad.factor % cfg.loops[l].unroll != 0) return false;
      }
    }
  }
  return true;
}

}  // namespace

PruningAudit auditPruning(const bench_suite::Benchmark& bm,
                          const sim::FpgaToolSim& tool,
                          const sim::GroundTruth& gt, double eps,
                          std::size_t raw_cap) {
  PruningAudit audit;
  audit.eps = eps;

  const hls::DesignSpace raw =
      hls::DesignSpace::buildRaw(bm.kernel, bm.spec, raw_cap);
  audit.raw_enumerated = raw.size();
  audit.raw_complete = bm.spec.rawSize() <= static_cast<double>(raw_cap);

  // Evaluate the raw space at impl fidelity; keep valid points, tagged with
  // whether Algorithm 1's own compatibility premises accept the config.
  std::vector<pareto::Point> raw_pts, compat_pts;
  raw_pts.reserve(raw.size());
  std::vector<double> rlo(sim::kNumObjectives, 1e300);
  std::vector<double> rhi(sim::kNumObjectives, -1e300);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const sim::Report r = tool.run(raw.config(i), sim::Fidelity::kImpl);
    if (!r.valid) continue;
    const std::vector<double> obj = r.objectives();
    pareto::Point y(sim::kNumObjectives);
    for (int m = 0; m < sim::kNumObjectives; ++m) y[m] = obj[m];
    for (int m = 0; m < sim::kNumObjectives; ++m) {
      rlo[m] = std::min(rlo[m], y[m]);
      rhi[m] = std::max(rhi[m], y[m]);
    }
    if (premiseAccepts(bm.kernel, bm.spec, raw.config(i)))
      compat_pts.push_back(y);
    raw_pts.push_back(std::move(y));
  }
  const std::vector<pareto::Point> raw_front = pareto::paretoFilter(raw_pts);
  const std::vector<pareto::Point> compat_front =
      pareto::paretoFilter(compat_pts);
  audit.raw_front_size = raw_front.size();
  audit.compat_front_size = compat_front.size();
  if (raw_front.empty()) return audit;

  // Pruned candidates, normalized by the RAW valid ranges so regret is
  // commensurate with the fronts being audited.
  std::vector<pareto::Point> pruned;
  for (std::size_t i = 0; i < gt.size(); ++i)
    if (gt.valid(i))
      pruned.push_back(sim::normalizeBy(gt.implObjectives(i), rlo, rhi));

  // Regret of a front point = how far the closest-from-above pruned config
  // is, in the worst objective (0 when some pruned config weakly dominates
  // it; 1e9 when the pruned space has no valid config at all).
  const auto regretOf = [&](const pareto::Point& fp) {
    const pareto::Point p = sim::normalizeBy(fp, rlo, rhi);
    double best = 1e9;
    for (const pareto::Point& q : pruned) {
      double worst = 0.0;
      for (std::size_t m = 0; m < p.size(); ++m)
        worst = std::max(worst, q[m] - p[m]);
      best = std::min(best, std::max(worst, 0.0));
      if (best == 0.0) break;
    }
    return best;
  };

  double sum = 0.0;
  for (const pareto::Point& fp : compat_front) {
    const double r = regretOf(fp);
    if (r > eps) ++audit.violations;
    audit.max_regret = std::max(audit.max_regret, r);
    sum += r;
  }
  if (!compat_front.empty())
    audit.mean_regret = sum / static_cast<double>(compat_front.size());

  sum = 0.0;
  for (const pareto::Point& fp : raw_front) {
    const double r = regretOf(fp);
    audit.full_max_regret = std::max(audit.full_max_regret, r);
    sum += r;
  }
  audit.full_mean_regret = sum / static_cast<double>(raw_front.size());
  return audit;
}

double fidelityGap(const sim::GroundTruth& gt, sim::Fidelity f) {
  return gt.adrsOf(gt.frontIndicesAt(f));
}

}  // namespace cmmfo::scenario
