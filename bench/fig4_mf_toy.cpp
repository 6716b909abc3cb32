// Regenerates Fig. 4: a 1-D toy problem with three fidelities. Lower
// fidelities have wider error bands; each fidelity's (cost-penalized) EI is
// evaluated over the candidate grid and the winning (point, fidelity) pair
// is reported — in the paper's illustration the LOWEST fidelity wins. The
// model is the optimizer's own surrogate with one objective: Eq. (5)
// non-linear chaining, each level a GP over [x, mu_{i-1}(x)].

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/surrogate.h"
#include "rng/rng.h"

using namespace cmmfo;
using namespace cmmfo::core;

namespace {

// Three nested approximations of the same 1-D landscape (minimization).
double fImpl(double x) { return std::sin(3.0 * x) + 0.6 * x; }
double fSyn(double x) { return fImpl(x) + 0.15 * std::cos(7.0 * x); }
double fHls(double x) { return fImpl(x) + 0.3 * std::cos(5.0 * x) + 0.1; }

double normPdf(double z) { return std::exp(-0.5 * z * z) * 0.3989422804014327; }
double normCdf(double z) { return 0.5 * std::erfc(-z * 0.70710678118654752); }

/// Single-objective expected improvement (Eq. 2, jitter xi = 0.01).
double expectedImprovement(double mu, double sigma, double best) {
  if (sigma < 1e-12) return 0.0;
  const double lambda = (best - 0.01 - mu) / sigma;
  return sigma * (lambda * normCdf(lambda) + normPdf(lambda));
}

}  // namespace

int main() {
  rng::Rng rng(3);

  // Nested designs: many cheap points, few expensive ones.
  double (*const truth[3])(double) = {fHls, fSyn, fImpl};
  const int points[3] = {7, 4, 3};
  std::vector<FidelityObs> data(3);
  double best[3];
  for (int f = 0; f < 3; ++f) {
    data[f].y = linalg::Matrix(points[f], 1);
    best[f] = 1e300;
    for (int i = 0; i < points[f]; ++i) {
      const double x = i / (points[f] - 1.0) * 3.0;
      data[f].x.push_back({x});
      data[f].y(i, 0) = truth[f](x);
      best[f] = std::min(best[f], data[f].y(i, 0));
    }
  }

  MultiFidelitySurrogate model(/*input_dim=*/1, /*num_objectives=*/1,
                               /*num_levels=*/3);
  model.fit(data, rng);

  const double t[3] = {1.0, 8.0, 40.0};  // stage costs; penalty = t[2]/t[i]

  std::printf("# x  mu_hls sd_hls ei_hls  mu_syn sd_syn ei_syn  "
              "mu_impl sd_impl ei_impl\n");
  double best_ei = -1.0;
  double best_x = 0.0;
  int best_f = 0;
  for (int i = 0; i <= 120; ++i) {
    const double x = i / 120.0 * 3.0;
    std::printf("%.3f", x);
    for (int f = 0; f < 3; ++f) {
      const gp::MultiPosterior p = model.predict(f, {x});
      const double mu = p.mean[0];
      const double sd = std::sqrt(std::max(p.cov(0, 0), 0.0));
      const double ei = expectedImprovement(mu, sd, best[f]) * (t[2] / t[f]);
      std::printf("  %.4f %.4f %.5f", mu, sd, ei);
      if (ei > best_ei) {
        best_ei = ei;
        best_x = x;
        best_f = f;
      }
    }
    std::printf("\n");
  }
  const char* names[3] = {"hls", "syn", "impl"};
  std::printf("# winner: fidelity=%s at x=%.3f (penalized EI=%.5f) — the "
              "paper's Fig. 4 illustration likewise favors a cheap fidelity\n",
              names[best_f], best_x, best_ei);
  return 0;
}
