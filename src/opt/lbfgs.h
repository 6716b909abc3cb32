#pragma once

#include "opt/objective.h"

namespace cmmfo::opt {

/// Limited-memory BFGS with Armijo backtracking line search.
///
/// This is the workhorse for GP hyperparameter MLE: objectives are smooth,
/// dimension is modest (tens of log-parameters) and analytic gradients are
/// available, which is exactly L-BFGS territory. The objective is asked for
/// its gradient at x0 and at each accepted step only, except the step of the
/// last iteration `max_iters` allows; line-search trials ask for the value
/// alone.
struct LbfgsOptions {
  int history = 8;
  int max_iters = 120;
  double grad_tolerance = 1e-5;
  /// Armijo sufficient-decrease constant.
  double armijo_c = 1e-4;
  /// Line-search backtracking factor.
  double backtrack = 0.5;
  int max_line_search = 30;
  /// Relative objective-change stopping tolerance.
  double f_tolerance = 1e-10;
};

OptResult minimizeLbfgs(const GradObjectiveFn& f, std::vector<double> x0,
                        const LbfgsOptions& opts = {});

}  // namespace cmmfo::opt
