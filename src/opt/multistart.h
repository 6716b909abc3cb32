#pragma once

#include <functional>
#include <vector>

#include "opt/lbfgs.h"
#include "opt/objective.h"

namespace cmmfo::opt {

/// Outcome of a multi-start L-BFGS search.
struct MultiStartResult {
  /// Strict argmin over the starts that ended finite, in start order (an
  /// exact tie goes to the earlier start). value is +inf and x is empty
  /// when no start ended finite.
  OptResult best;
  /// L-BFGS iterations summed over every start.
  int iterations = 0;
  /// Iteration budget of the whole search: starts x max_iters. A search
  /// with iterations >= budget exhausted every start.
  int budget = 0;
};

/// Run L-BFGS from every start and keep the best result — the multi-start
/// MLE of every GP in the library. MLE landscapes for GP kernels are
/// multi-modal (long vs short lengthscale interpretations of the same
/// data); a handful of informed starts is the standard cure.
///
/// The starts are independent, so they run on the process-wide fork-join
/// pool (util::forkJoin; the calling thread runs starts too, so concurrent
/// and nested calls always make progress). `make_objective` is called once
/// per start, on the thread that runs it, and must be safe to call
/// concurrently; the objective it returns is used by that start only, so it
/// may own mutable scratch buffers. The reduction runs in start order after
/// every start is done, so the result is bit-identical to a sequential loop
/// over the starts.
MultiStartResult minimizeFromStarts(
    const std::function<GradObjectiveFn()>& make_objective,
    const std::vector<std::vector<double>>& starts,
    const LbfgsOptions& opts = {});

}  // namespace cmmfo::opt
