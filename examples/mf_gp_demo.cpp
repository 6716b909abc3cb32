// Multi-fidelity GP regression demo on the classic NARGP benchmark pair
// (the structure behind Eq. 5 of the paper):
//
//   f_lo(x) = sin(8 pi x)                 cheap, dense data
//   f_hi(x) = (x - sqrt(2)) * f_lo(x)^2   expensive, scarce data
//
// The high fidelity is a NON-LINEAR transform of the low one. The demo fits
// the optimizer's surrogate (one objective, two fidelities) with three
// cross-fidelity structures:
// (a) no chaining: a plain GP on the scarce high-fidelity data,
// (b) the linear AR(1) co-kriging chain (FPL18's assumption), and
// (c) the paper's non-linear chain, a GP over [x, mu_lo(x)],
// and prints their high-fidelity predictions side by side.

#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "core/surrogate.h"
#include "rng/rng.h"

using namespace cmmfo;
using namespace cmmfo::core;

namespace {
double fLo(double x) { return std::sin(8.0 * std::numbers::pi * x); }
double fHi(double x) { return (x - std::sqrt(2.0)) * fLo(x) * fLo(x); }

FidelityObs sample(double (*f)(double), int n) {
  FidelityObs o;
  o.y = linalg::Matrix(n, 1);
  for (int i = 0; i < n; ++i) {
    const double x = i / (n - 1.0);
    o.x.push_back({x});
    o.y(i, 0) = f(x);
  }
  return o;
}
}  // namespace

int main() {
  const std::vector<FidelityObs> data = {sample(fLo, 41), sample(fHi, 15)};

  const MfKind kinds[3] = {MfKind::kSingleFidelity, MfKind::kLinear,
                           MfKind::kNonlinear};
  std::vector<MultiFidelitySurrogate> models;
  for (const MfKind kind : kinds) {
    SurrogateOptions opts;
    opts.mf = kind;
    models.emplace_back(/*input_dim=*/1, /*num_objectives=*/1,
                        /*num_levels=*/2, opts);
    rng::Rng rng(1);
    models.back().fit(data, rng);
  }

  std::printf("# x     true    single    linear  nonlinear\n");
  double se[3] = {0.0, 0.0, 0.0};
  int n = 0;
  for (int i = 0; i <= 100; ++i, ++n) {
    const double x = i / 100.0;
    const double t = fHi(x);
    double pred[3];
    for (int k = 0; k < 3; ++k) {
      pred[k] = models[k].predict(1, {x}).mean[0];
      se[k] += (pred[k] - t) * (pred[k] - t);
    }
    if (i % 5 == 0)
      std::printf("%.2f %8.4f %9.4f %9.4f %10.4f\n", x, t, pred[0], pred[1],
                  pred[2]);
  }
  std::printf("\nRMSE  single-fidelity GP: %.4f\n", std::sqrt(se[0] / n));
  std::printf("RMSE  linear MF (FPL18) : %.4f\n", std::sqrt(se[1] / n));
  std::printf("RMSE  non-linear MF     : %.4f   <- Eq. (5)\n",
              std::sqrt(se[2] / n));
  return 0;
}
