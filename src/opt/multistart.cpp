#include "opt/multistart.h"

#include <cmath>
#include <limits>

#include "util/fork_join.h"

namespace cmmfo::opt {

MultiStartResult minimizeFromStarts(
    const std::function<GradObjectiveFn()>& make_objective,
    const std::vector<std::vector<double>>& starts, const LbfgsOptions& opts) {
  std::vector<OptResult> runs(starts.size());
  util::forkJoin(starts.size(), [&](std::size_t s) {
    runs[s] = minimizeLbfgs(make_objective(), starts[s], opts);
  });
  MultiStartResult out;
  out.best.value = std::numeric_limits<double>::infinity();
  out.budget = static_cast<int>(starts.size()) * opts.max_iters;
  for (auto& r : runs) {
    out.iterations += r.iterations;
    if (std::isfinite(r.value) && r.value < out.best.value) out.best = std::move(r);
  }
  return out;
}

}  // namespace cmmfo::opt
