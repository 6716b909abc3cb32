#include "gp/gp_regressor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "linalg/vec_ops.h"
#include "opt/multistart.h"

namespace cmmfo::gp {

namespace {
double clampLogNoise(double v) {
  return std::clamp(v, std::log(kMinNoise), std::log(kMaxNoise));
}
}  // namespace

GpRegressor::GpRegressor(const Matern52Ard& prototype, GpFitOptions opts)
    : kernel_(prototype), opts_(opts), log_noise_(std::log(kInitNoise)) {}

double GpRegressor::noiseStddev() const { return std::exp(log_noise_); }

Vec GpRegressor::packedParams() const {
  Vec p = kernel_.params();
  p.push_back(log_noise_);
  return p;
}

void GpRegressor::applyPacked(const Vec& packed) {
  const std::size_t nk = kernel_.numParams();
  kernel_.setParams(Vec(packed.begin(), packed.begin() + nk));
  log_noise_ = clampLogNoise(packed[nk]);
}

struct GpRegressor::LmlWorkspace {
  LmlWorkspace(const Matern52Ard& k, const Dataset& x) : kernel(k) {
    pairs.bind(x);
  }
  Matern52Ard kernel;    // re-parameterized per evaluation
  PairCache pairs;       // bound to the training inputs once per start
  linalg::Matrix gram;   // noise-augmented Gram, then W
  linalg::Cholesky chol; // refactorized in place
  Vec tr;                // gramGradTrace output
  // What the last value call left for a gradient request at the same point
  // (`at`, compared bit for bit; empty when nothing is kept): the kernel
  // parameters, pair cache and factor above, and its alpha, noise variance
  // and NLL.
  Vec at;
  Vec alpha;
  double noise_var = 0.0;
  double nll = 0.0;
};

double GpRegressor::negLml(const Vec& packed, Vec* grad_out,
                           LmlWorkspace& ws) const {
  const std::size_t n = x_.size();
  const std::size_t nk = kernel_.numParams();
  if (!opt::samePoint(ws.at, packed)) {
    ws.at.clear();
    ws.kernel.setParams(Vec(packed.begin(), packed.begin() + nk));
    ws.noise_var = std::exp(2.0 * clampLogNoise(packed[nk]));
    ws.kernel.pairGram(ws.pairs, ws.gram);
    for (std::size_t i = 0; i < n; ++i) ws.gram(i, i) += ws.noise_var;
    if (!ws.chol.refactorize(ws.gram)) {
      if (grad_out != nullptr) grad_out->assign(packed.size(), 0.0);
      return std::numeric_limits<double>::infinity();
    }
    ws.alpha = ws.chol.solve(state_.y_std);
    const double data_fit = 0.5 * linalg::dot(state_.y_std, ws.alpha);
    ws.nll = data_fit + 0.5 * ws.chol.logDet() +
             0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
    ws.at = packed;
  }
  if (grad_out == nullptr) return ws.nll;

  // dNLL/dtheta = -1/2 tr(W dK/dtheta), W = alpha alpha^T - K^{-1}, built
  // in the Gram buffer (the factor no longer needs it).
  Vec& grad = *grad_out;
  grad.assign(packed.size(), 0.0);
  const Vec& alpha = ws.alpha;
  linalg::Matrix& w = ws.gram;
  ws.chol.inverseInto(w);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) w(i, j) = alpha[i] * alpha[j] - w(i, j);
  ws.kernel.gramGradTrace(ws.pairs, w, ws.tr);
  for (std::size_t p = 0; p < nk; ++p) grad[p] = -0.5 * ws.tr[p];
  // dK/d log_noise = 2 * noise_var * I.
  double tr = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr += w(i, i);
  grad[nk] = -0.5 * tr * 2.0 * ws.noise_var;
  // At a clamp boundary, zero the gradient component pointing outward so
  // the line search does not chase an inert direction.
  if ((packed[nk] <= std::log(kMinNoise) && grad[nk] > 0.0) ||
      (packed[nk] >= std::log(kMaxNoise) && grad[nk] < 0.0))
    grad[nk] = 0.0;
  return ws.nll;
}

opt::GradObjectiveFn GpRegressor::lmlObjective() const {
  auto ws = std::make_shared<LmlWorkspace>(kernel_, x_);
  return [this, ws](const Vec& p, Vec* g) { return negLml(p, g, *ws); };
}

double GpRegressor::evalNegLogMarginalLikelihood(const Vec& packed,
                                                 Vec* grad) const {
  LmlWorkspace ws(kernel_, x_);
  return negLml(packed, grad, ws);
}

void GpRegressor::fit(const Dataset& x, const Vec& y, rng::Rng& rng) {
  assert(!x.empty() && x.size() == y.size());
  x_ = x;
  y_raw_ = y;
  standardizeTargets();

  // Informed multi-start: the caller's prototype parameters, the
  // median-distance data-driven initialization, and random perturbations of
  // the latter. The data-driven start is what rescues MLE from the
  // "everything is noise" optimum on fast-varying targets. Every random
  // draw happens here, before the starts fan out.
  std::vector<Vec> starts;
  starts.push_back(packedParams());
  {
    Matern52Ard init = kernel_;
    init.initFromData(x_);
    // Multi-resolution ladder: the median distance and two shorter scales.
    for (double factor : {1.0, 0.25, 0.0625}) {
      Matern52Ard k2 = init;
      k2.scaleLengthscales(factor);
      Vec p = k2.params();
      p.push_back(std::log(kInitNoise));
      starts.push_back(std::move(p));
    }
    for (int s2 = 0; s2 < opts_.mle_restarts; ++s2) {
      Vec q = starts[1];
      for (auto& v : q) v += rng.uniform(-1.5, 1.5);
      starts.push_back(std::move(q));
    }
  }
  opt::LbfgsOptions lopts;
  lopts.max_iters = opts_.max_mle_iters;
  const opt::MultiStartResult r = opt::minimizeFromStarts(
      [this] { return lmlObjective(); }, starts, lopts);
  last_fit_iters_ = r.iterations;
  last_fit_budget_ = r.budget;
  if (std::isfinite(r.best.value)) applyPacked(r.best.x);

  rebuildDense();
}

void GpRegressor::rebuildDense() {
  const std::size_t n = x_.size();
  linalg::Matrix gram = kernel_.gram(x_);
  const double noise_var = std::exp(2.0 * log_noise_);
  for (std::size_t i = 0; i < n; ++i) gram(i, i) += noise_var;
  // A Gram the escalated jitter ladder cannot factorize has non-finite
  // entries (degenerate hyperparameters or poisoned targets). Throw instead
  // of asserting: in Release an assert would compile out and the solve
  // below would read an empty factor (UB); a throw lets the server's
  // supervision isolate the failure to this campaign.
  if (!state_.refitDense(gram))
    throw std::runtime_error(
        "gp: Gram matrix not factorizable even with escalated jitter "
        "(non-finite entries?)");
  state_.solveTargets();
}

void GpRegressor::standardizeTargets() {
  state_.standardizers.assign(1, linalg::Standardizer::fit(y_raw_));
  state_.y_std = state_.standardizers[0].transform(y_raw_);
  state_.solved = false;
}

void GpRegressor::refitPosterior(const Dataset& x, const Vec& y) {
  assert(!x.empty() && x.size() == y.size());
  x_ = x;
  y_raw_ = y;
  standardizeTargets();
  rebuildDense();
}

bool GpRegressor::appendPoint(const Vec& x, double y) {
  // Rank-append: the cross-covariance row and noise-augmented diagonal are
  // exactly the entries a dense Gram of the extended data would hold, so
  // the grown factor (and thus alpha, lml, predictions) is bit-identical to
  // refitPosterior on x_ + {x}. A jittered or mismatched factor, or an
  // unsafe update, takes the dense path instead.
  const bool incremental =
      fitted() && state_.chol->jitterUsed() == 0.0 &&
      state_.rows() == x_.size() &&
      state_.appendRow(kernel_.crossVec(x_, x),
                       kernel_.eval(x, x) + std::exp(2.0 * log_noise_));
  x_.push_back(x);
  y_raw_.push_back(y);
  if (!incremental) {
    standardizeTargets();
    rebuildDense();
  }
  return incremental;
}

void GpRegressor::truncatePoints(std::size_t n) {
  assert(fitted() && n >= 1 && n <= x_.size() && state_.rows() == x_.size());
  if (n == x_.size()) return;
  x_.resize(n);
  y_raw_.resize(n);
  state_.truncateTo(n);
}

void GpRegressor::finishUpdate() {
  if (state_.solved) return;
  standardizeTargets();
  state_.solveTargets();
}

bool GpRegressor::appendObservation(const Vec& x, double y) {
  const bool incremental = appendPoint(x, y);
  finishUpdate();
  return incremental;
}

void GpRegressor::truncateToPoints(std::size_t n) {
  truncatePoints(n);
  finishUpdate();
}

bool GpRegressor::updatePoints(std::size_t keep, const Dataset& x,
                               const Vec& y) {
  assert(x.size() == y.size());
  truncatePoints(keep);
  bool incremental = true;
  for (std::size_t i = 0; i < x.size(); ++i)
    incremental &= appendPoint(x[i], y[i]);
  finishUpdate();
  return incremental;
}

double GpRegressor::meanFrom(const Vec& kstar) const {
  assert(fitted() && state_.solved);
  return state_.standardizers[0].inverse(linalg::dot(kstar, state_.alpha));
}

double GpRegressor::predictMean(const Vec& x) const {
  return meanFrom(kernel_.crossVec(x_, x));
}

Posterior GpRegressor::predict(const Vec& x) const {
  const Vec kstar = kernel_.crossVec(x_, x);
  Posterior p;
  p.mean = meanFrom(kstar);
  const Vec v = state_.chol->solveLower(kstar);
  const double kxx = kernel_.eval(x, x);
  double z_var = kxx - linalg::dot(v, v);
  z_var = std::max(z_var, 0.0);
  p.var = state_.standardizers[0].inverseVar(z_var);
  return p;
}

std::vector<Posterior> GpRegressor::predictBatch(const Dataset& x) const {
  assert(fitted() && state_.solved);
  std::vector<Posterior> out;
  if (x.empty()) return out;
  out.reserve(x.size());
  const std::size_t n = x_.size(), nc = x.size();
  // One cross-Gram build and ONE multi-RHS forward substitution for the
  // whole candidate block; the per-candidate reductions below accumulate in
  // the same index order as predict()'s dot products, so every entry is
  // bit-identical to the scalar path.
  const linalg::Matrix kstar = kernel_.cross(x_, x);
  const linalg::Matrix v = state_.chol->solveLower(kstar);
  const linalg::Standardizer& std1 = state_.standardizers[0];
  for (std::size_t c = 0; c < nc; ++c) {
    double z_mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) z_mean += kstar(i, c) * state_.alpha[i];
    double vv = 0.0;
    for (std::size_t i = 0; i < n; ++i) vv += v(i, c) * v(i, c);
    const double kxx = kernel_.eval(x[c], x[c]);
    double z_var = kxx - vv;
    z_var = std::max(z_var, 0.0);
    Posterior p;
    p.mean = std1.inverse(z_mean);
    p.var = std1.inverseVar(z_var);
    out.push_back(p);
  }
  return out;
}

}  // namespace cmmfo::gp
