#include "opt/lbfgs.h"

#include <cmath>
#include <deque>

#include "linalg/vec_ops.h"

namespace cmmfo::opt {

using linalg::axpy;
using linalg::dot;
using linalg::norm2;
using linalg::normInf;
using linalg::sub;

OptResult minimizeLbfgs(const GradObjectiveFn& f, std::vector<double> x0,
                        const LbfgsOptions& opts) {
  const std::size_t n = x0.size();
  OptResult res;
  std::vector<double> g(n);
  double fx = f(x0, &g);
  if (!std::isfinite(fx)) {
    // Starting point is outside the numerically valid region; report as-is.
    res.x = std::move(x0);
    res.value = fx;
    return res;
  }

  struct Pair {
    std::vector<double> s, y;
    double rho;
  };
  std::deque<Pair> hist;
  int small_df_streak = 0;

  std::vector<double> x = x0;
  for (int it = 0; it < opts.max_iters; ++it) {
    res.iterations = it + 1;
    if (normInf(g) < opts.grad_tolerance) {
      res.converged = true;
      break;
    }

    // Two-loop recursion for the search direction d = -H g.
    std::vector<double> q = g;
    std::vector<double> alpha(hist.size());
    for (std::size_t i = hist.size(); i-- > 0;) {
      alpha[i] = hist[i].rho * dot(hist[i].s, q);
      axpy(-alpha[i], hist[i].y, q);
    }
    if (!hist.empty()) {
      const auto& last = hist.back();
      const double gamma = dot(last.s, last.y) / dot(last.y, last.y);
      for (auto& qi : q) qi *= gamma;
    } else {
      // No curvature information yet: scale the steepest-descent direction
      // so the unit step is O(1) in x rather than O(|g|) — otherwise a large
      // gradient forces the line search into microscopic steps whose (s, y)
      // pairs are too degenerate to ever build a Hessian estimate.
      const double gn = normInf(q);
      if (gn > 1.0)
        for (auto& qi : q) qi /= gn;
    }
    for (std::size_t i = 0; i < hist.size(); ++i) {
      const double beta = hist[i].rho * dot(hist[i].y, q);
      axpy(alpha[i] - beta, hist[i].s, q);
    }
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) d[i] = -q[i];

    double dg = dot(d, g);
    if (dg >= 0.0) {
      // Curvature information went bad; restart with steepest descent.
      hist.clear();
      for (std::size_t i = 0; i < n; ++i) d[i] = -g[i];
      dg = -dot(g, g);
    }

    // Armijo backtracking on values alone: a rejected trial's gradient
    // would be thrown away, so it is asked for at the accepted point only.
    double step = 1.0;
    double f_new = fx;
    std::vector<double> x_new;
    bool ok = false;
    for (int ls = 0; ls < opts.max_line_search; ++ls) {
      x_new = x;
      axpy(step, d, x_new);
      f_new = f(x_new, nullptr);
      if (std::isfinite(f_new) && f_new <= fx + opts.armijo_c * step * dg) {
        ok = true;
        break;
      }
      step *= opts.backtrack;
    }
    if (!ok) {
      if (!hist.empty()) {
        // Quasi-Newton direction failed the line search: drop the history
        // and retry from steepest descent before giving up.
        hist.clear();
        continue;
      }
      res.converged = true;  // no descent possible at machine precision
      break;
    }

    // The accepted point's gradient steers the next iteration; after the
    // last one nothing reads it, so it is not asked for.
    if (it + 1 < opts.max_iters) {
      std::vector<double> g_new;
      f(x_new, &g_new);
      auto s = sub(x_new, x);
      auto yv = sub(g_new, g);
      const double sy = dot(s, yv);
      // Relative curvature condition: absolute thresholds starve the
      // history when steps are legitimately small.
      if (sy > 1e-10 * norm2(s) * norm2(yv) && sy > 0.0) {
        hist.push_back({std::move(s), std::move(yv), 1.0 / sy});
        if (static_cast<int>(hist.size()) > opts.history) hist.pop_front();
      }
      g = std::move(g_new);
    }

    const double df = std::fabs(fx - f_new);
    x = std::move(x_new);
    const double prev = fx;
    fx = f_new;
    // A single tiny improvement can be an artifact of a heavily backtracked
    // step (e.g. right after a curvature restart); require a streak before
    // declaring convergence on function change.
    if (df <= opts.f_tolerance * std::max(1.0, std::fabs(prev))) {
      if (++small_df_streak >= 3) {
        res.converged = true;
        break;
      }
    } else {
      small_df_streak = 0;
    }
  }
  res.x = std::move(x);
  res.value = fx;
  return res;
}

}  // namespace cmmfo::opt
