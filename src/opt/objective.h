#pragma once

#include <cstring>
#include <functional>
#include <vector>

namespace cmmfo::opt {

/// Objective of every optimizer in this module (they all MINIMIZE): returns
/// f(x) and, when `grad` is not null, fills *grad (resized to x.size()) with
/// its gradient. L-BFGS asks for the value alone at line-search trials and
/// for the gradient only where it needs one (the start and the accepted
/// steps it goes on from),
/// so an objective may defer the gradient-only part of its work until a
/// call with a gradient at the point it last evaluated.
using GradObjectiveFn =
    std::function<double(const std::vector<double>& x, std::vector<double>* grad)>;

/// Whether a and b are the same point bit for bit: how an objective that
/// keeps its last value call's state recognizes a gradient request there.
inline bool samePoint(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Result of a local or global optimization run.
struct OptResult {
  std::vector<double> x;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
};

}  // namespace cmmfo::opt
