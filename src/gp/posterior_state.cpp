#include "gp/posterior_state.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "linalg/vec_ops.h"

namespace cmmfo::gp {

bool PosteriorState::refitDense(const linalg::Matrix& gram_with_noise) {
  // Refactorized in the factor's own storage, which keeps the capacity its
  // rank-appends grew.
  if (!chol) chol.emplace();
  solved = false;
  if (!chol->refactorize(gram_with_noise)) {
    // Standard ladder exhausted (tops out near 1e-1): escalate from a
    // larger base jitter with more tries (up to ~1e7 — enough to swamp any
    // finite near-singular Gram). Anything still failing here has
    // non-finite entries, which no jitter can fix.
    if (!chol->refactorize(gram_with_noise, /*initial_jitter=*/1e-6,
                           /*max_tries=*/14)) {
      chol.reset();
      return false;
    }
    ++jitter_escalations;
    last_escalation_jitter = chol->jitterUsed();
  }
  base_rows = chol->dim();
  return true;
}

bool PosteriorState::appendRow(const Vec& cross, double diag) {
  if (!chol) return false;
  solved = false;
  return chol->appendRow(cross, diag);
}

void PosteriorState::truncateTo(std::size_t n) {
  assert(chol && n <= chol->dim());
  chol->truncateTo(n);
  solved = false;
  if (y_std.size() > n) y_std.resize(n);
  if (base_rows > n) base_rows = n;
}

void PosteriorState::solveTargets() {
  assert(chol && y_std.size() == chol->dim());
  alpha = chol->solve(y_std);
  lml = -(0.5 * linalg::dot(y_std, alpha) + 0.5 * chol->logDet() +
          0.5 * static_cast<double>(chol->dim()) *
              std::log(2.0 * std::numbers::pi));
  solved = true;
}

void PosteriorState::reset() {
  chol.reset();
  standardizers.clear();
  y_std.clear();
  alpha.clear();
  lml = 0.0;
  base_rows = 0;
  solved = false;
}

}  // namespace cmmfo::gp
