#include "opt/adam.h"

#include <cmath>

#include "linalg/vec_ops.h"

namespace cmmfo::opt {

AdamStepper::AdamStepper(std::size_t dim, const AdamOptions& opts)
    : opts_(opts), m_(dim, 0.0), v_(dim, 0.0) {}

void AdamStepper::step(std::vector<double>& params,
                       const std::vector<double>& grad) {
  ++t_;
  const double bc1 = 1.0 - std::pow(opts_.beta1, t_);
  const double bc2 = 1.0 - std::pow(opts_.beta2, t_);
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = opts_.beta1 * m_[i] + (1.0 - opts_.beta1) * grad[i];
    v_[i] = opts_.beta2 * v_[i] + (1.0 - opts_.beta2) * grad[i] * grad[i];
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    params[i] -= opts_.learning_rate * mhat / (std::sqrt(vhat) + opts_.epsilon);
  }
}

OptResult minimizeAdam(const GradObjectiveFn& f, std::vector<double> x0,
                       const AdamOptions& opts) {
  OptResult res;
  AdamStepper stepper(x0.size(), opts);
  std::vector<double> grad(x0.size());
  std::vector<double> best_x = x0;
  double best_f = f(x0, &grad);
  for (int it = 0; it < opts.max_iters; ++it) {
    res.iterations = it + 1;
    if (linalg::normInf(grad) < opts.grad_tolerance) {
      res.converged = true;
      break;
    }
    stepper.step(x0, grad);
    const double fx = f(x0, &grad);
    if (std::isfinite(fx) && fx < best_f) {
      best_f = fx;
      best_x = x0;
    }
  }
  res.x = std::move(best_x);
  res.value = best_f;
  return res;
}

}  // namespace cmmfo::opt
