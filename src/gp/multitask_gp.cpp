#include "gp/multitask_gp.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>

#include "linalg/vec_ops.h"
#include "obs/obs.h"
#include "opt/multistart.h"

namespace cmmfo::gp {

namespace {
std::size_t lowerTriCount(std::size_t m) { return m * (m + 1) / 2; }

/// Phases of negLml, timed into a per-start ledger while metrics are on and
/// published once per fit, summed over every evaluation of every start.
enum MlePhase {
  kGram,      // input-kernel Gram from the pair cache
  kStack,     // B and the noise-augmented stacked Gram
  kFactor,    // Cholesky with the jitter ladder
  kSolve,     // alpha, log det and the NLL
  kInverse,   // explicit K^{-1}
  kCollapse,  // W, its task collapse, task and noise gradients
  kTrace,     // kernel-parameter gradient trace
  kMlePhases
};
constexpr const char* kMlePhaseMetric[kMlePhases] = {
    "gp.mle_gram_seconds",    "gp.mle_stack_seconds",
    "gp.mle_factor_seconds",  "gp.mle_solve_seconds",
    "gp.mle_inverse_seconds", "gp.mle_collapse_seconds",
    "gp.mle_trace_seconds"};
using MleLedger = std::array<double, kMlePhases>;

/// Adds the time since the previous lap to a ledger entry; a no-op when the
/// ledger is off (metrics disabled), so untimed fits read no clock.
class LapClock {
 public:
  explicit LapClock(bool on) : on_(on) {
    if (on_) last_ = std::chrono::steady_clock::now();
  }
  void lap(double& into) {
    if (!on_) return;
    const auto now = std::chrono::steady_clock::now();
    into += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

 private:
  bool on_;
  std::chrono::steady_clock::time_point last_{};
};
}  // namespace

MultiTaskGp::MultiTaskGp(const Matern52Ard& input_kernel,
                         std::size_t num_tasks, MultiTaskFitOptions opts)
    : kernel_(input_kernel),
      m_(num_tasks),
      opts_(opts),
      l_entries_(lowerTriCount(num_tasks), 0.0),
      log_noise_(num_tasks, std::log(kInitNoise)) {
  // Identity initialization of L: diagonal logs at 0, off-diagonals at 0.
}

std::size_t MultiTaskGp::numPacked() const {
  return kernel_.numParams() + lowerTriCount(m_) + m_;
}

Vec MultiTaskGp::packedParams() const {
  Vec p = kernel_.params();
  p.insert(p.end(), l_entries_.begin(), l_entries_.end());
  p.insert(p.end(), log_noise_.begin(), log_noise_.end());
  return p;
}

void MultiTaskGp::applyPacked(const Vec& p) {
  assert(p.size() == numPacked());
  const std::size_t nk = kernel_.numParams();
  kernel_.setParams(Vec(p.begin(), p.begin() + nk));
  const std::size_t nl = lowerTriCount(m_);
  l_entries_.assign(p.begin() + nk, p.begin() + nk + nl);
  log_noise_.assign(p.begin() + nk + nl, p.end());
  for (auto& ln : log_noise_)
    ln = std::clamp(ln, std::log(kMinNoise), std::log(kMaxNoise));
}

linalg::Matrix MultiTaskGp::buildB(const Vec& l_entries, std::size_t m) {
  // Expand the packed lower triangle into L (diagonals exponentiated to stay
  // positive), then B = L L^T.
  linalg::Matrix l(m, m);
  std::size_t idx = 0;
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c <= r; ++c, ++idx)
      l(r, c) = (r == c) ? std::exp(l_entries[idx]) : l_entries[idx];
  return l.matmul(l.transposed());
}

void MultiTaskGp::stackGram(const linalg::Matrix& kx, const linalg::Matrix& b,
                            const Vec& log_noise, linalg::Matrix& gram) const {
  const std::size_t n = x_.size();
  gram.assignZero(n * m_, n * m_);
  for (std::size_t mm = 0; mm < m_; ++mm)
    for (std::size_t mp = 0; mp < m_; ++mp) {
      const double bmm = b(mm, mp);
      for (std::size_t i = 0; i < n; ++i) {
        double* dst = gram.rowPtr(mm * n + i) + mp * n;
        const double* src = kx.rowPtr(i);
        for (std::size_t j = 0; j < n; ++j) dst[j] += bmm * src[j];
      }
    }
  for (std::size_t mm = 0; mm < m_; ++mm) {
    const double nv = std::exp(2.0 * log_noise[mm]);
    for (std::size_t i = 0; i < n; ++i) gram(mm * n + i, mm * n + i) += nv;
  }
}

struct MultiTaskGp::LmlWorkspace {
  LmlWorkspace(const MultiTaskGp& gp, bool timed)
      : kernel(gp.kernel_), timed(timed) {
    pairs.bind(gp.x_);
    // Task-major standardized targets, rebuilt from the raw targets so the
    // MLE objective is valid even when the cached factor is in bordered
    // (append) order. Bit-identical to the cached y_std after a dense refit.
    const std::size_t n = gp.x_.size();
    y_stacked.resize(n * gp.m_);
    for (std::size_t mm = 0; mm < gp.m_; ++mm)
      for (std::size_t i = 0; i < n; ++i)
        y_stacked[mm * n + i] =
            gp.state_.standardizers[mm].transform(gp.y_raw_(i, mm));
  }
  Matern52Ard kernel;    // re-parameterized per evaluation
  Vec y_stacked;
  PairCache pairs;       // bound to the training inputs once per start
  linalg::Matrix kx;     // input-kernel Gram
  linalg::Matrix gram;   // stacked Gram, then W
  linalg::Cholesky chol; // refactorized in place
  linalg::Matrix wsum;
  Vec tr;                // gramGradTrace output
  bool timed;            // fill `ledger` (metrics on)
  MleLedger ledger{};
  // What the last value call left for a gradient request at the same point
  // (`at`, compared bit for bit; empty when nothing is kept): the kernel
  // parameters, pair cache, kx and factor above, and its alpha, B, clamped
  // log noise and NLL.
  Vec at;
  Vec alpha;
  linalg::Matrix b;
  Vec log_noise;
  double nll = 0.0;
};

double MultiTaskGp::negLml(const Vec& packed, Vec* grad_out,
                           LmlWorkspace& ws) const {
  const std::size_t n = x_.size();
  const std::size_t nn = n * m_;
  const std::size_t nk = kernel_.numParams();
  const std::size_t nl = lowerTriCount(m_);
  LapClock clock(ws.timed);

  if (!opt::samePoint(ws.at, packed)) {
    ws.at.clear();
    ws.kernel.setParams(Vec(packed.begin(), packed.begin() + nk));
    ws.log_noise.assign(packed.begin() + nk + nl, packed.end());
    for (auto& ln : ws.log_noise)
      ln = std::clamp(ln, std::log(kMinNoise), std::log(kMaxNoise));

    ws.kernel.pairGram(ws.pairs, ws.kx);
    clock.lap(ws.ledger[kGram]);
    ws.b = buildB(Vec(packed.begin() + nk, packed.begin() + nk + nl), m_);
    stackGram(ws.kx, ws.b, ws.log_noise, ws.gram);
    clock.lap(ws.ledger[kStack]);
    const bool factored = ws.chol.refactorize(ws.gram);
    clock.lap(ws.ledger[kFactor]);
    if (!factored) {
      if (grad_out != nullptr) grad_out->assign(packed.size(), 0.0);
      return std::numeric_limits<double>::infinity();
    }

    const Vec& y = ws.y_stacked;
    ws.alpha = ws.chol.solve(y);
    ws.nll = 0.5 * linalg::dot(y, ws.alpha) + 0.5 * ws.chol.logDet() +
             0.5 * static_cast<double>(nn) * std::log(2.0 * std::numbers::pi);
    clock.lap(ws.ledger[kSolve]);
    ws.at = packed;
  }
  if (grad_out == nullptr) return ws.nll;
  Vec& grad = *grad_out;
  grad.assign(packed.size(), 0.0);
  const linalg::Matrix& kx = ws.kx;
  const linalg::Matrix& b = ws.b;
  const Vec& alpha = ws.alpha;

  // W = alpha alpha^T - K^{-1}, built in the Gram buffer (the factor no
  // longer needs it); dNLL/dtheta = -1/2 tr(W dK/dtheta).
  linalg::Matrix& w = ws.gram;
  ws.chol.inverseInto(w);
  clock.lap(ws.ledger[kInverse]);
  for (std::size_t a = 0; a < nn; ++a)
    for (std::size_t c = 0; c < nn; ++c) w(a, c) = alpha[a] * alpha[c] - w(a, c);

  // Kernel parameters: dK = B (x) dKx. Precompute the B-weighted collapse of
  // W over task blocks so each kernel parameter costs O(n^2).
  ws.wsum.assignZero(n, n);
  for (std::size_t mm = 0; mm < m_; ++mm)
    for (std::size_t mp = 0; mp < m_; ++mp) {
      const double bmm = b(mm, mp);
      if (bmm == 0.0) continue;
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          ws.wsum(i, j) += bmm * w(mm * n + i, mp * n + j);
    }
  clock.lap(ws.ledger[kCollapse]);
  ws.kernel.gramGradTrace(ws.pairs, ws.wsum, ws.tr);
  for (std::size_t p = 0; p < nk; ++p) grad[p] = -0.5 * ws.tr[p];
  clock.lap(ws.ledger[kTrace]);

  // Task-covariance parameters: dK = dB (x) Kx. Precompute
  // T[mm, mp] = sum_ij W[(mm,i),(mp,j)] Kx(i,j) so each is O(M^2). Each sum
  // runs over (i, j) in row-major order from 0; taking row i of all M^2
  // sums before row i + 1 lets their dependent chains overlap.
  linalg::Matrix t(m_, m_);
  for (std::size_t i = 0; i < n; ++i) {
    const double* ki = kx.rowPtr(i);
    for (std::size_t mm = 0; mm < m_; ++mm) {
      const double* wi = w.rowPtr(mm * n + i);
      for (std::size_t mp = 0; mp < m_; ++mp) {
        const double* wr = wi + mp * n;
        double s = t(mm, mp);
        for (std::size_t j = 0; j < n; ++j) s += wr[j] * ki[j];
        t(mm, mp) = s;
      }
    }
  }
  // Expand L for dB computation.
  linalg::Matrix lmat(m_, m_);
  {
    std::size_t idx = 0;
    for (std::size_t r = 0; r < m_; ++r)
      for (std::size_t c = 0; c <= r; ++c, ++idx)
        lmat(r, c) = (r == c) ? std::exp(packed[nk + idx]) : packed[nk + idx];
  }
  {
    std::size_t idx = 0;
    for (std::size_t a = 0; a < m_; ++a)
      for (std::size_t c = 0; c <= a; ++c, ++idx) {
        // dL = d * E_{a,c}, d = L_aa for the log-diagonal, else 1.
        const double d = (a == c) ? lmat(a, a) : 1.0;
        // dB = dL L^T + L dL^T => dB(r,s) = [r==a] d L(s,c) + [s==a] d L(r,c).
        double tr = 0.0;
        for (std::size_t s = 0; s < m_; ++s) tr += t(a, s) * d * lmat(s, c);
        for (std::size_t r = 0; r < m_; ++r) tr += t(r, a) * d * lmat(r, c);
        grad[nk + idx] = -0.5 * tr;
      }
  }

  // Noise parameters: dK = 2 sigma_m^2 I on task-m block.
  for (std::size_t mm = 0; mm < m_; ++mm) {
    const double nv = std::exp(2.0 * ws.log_noise[mm]);
    double tr = 0.0;
    for (std::size_t i = 0; i < n; ++i) tr += w(mm * n + i, mm * n + i);
    double g = -0.5 * tr * 2.0 * nv;
    if ((packed[nk + nl + mm] <= std::log(kMinNoise) && g > 0.0) ||
        (packed[nk + nl + mm] >= std::log(kMaxNoise) && g < 0.0))
      g = 0.0;
    grad[nk + nl + mm] = g;
  }
  clock.lap(ws.ledger[kCollapse]);
  return ws.nll;
}

void MultiTaskGp::fit(const Dataset& x, const linalg::Matrix& y,
                      rng::Rng& rng) {
  assert(!x.empty() && y.rows() == x.size() && y.cols() == m_);
  // The MLE objective reads the inputs, raw targets and standardizers; the
  // factor is built once, after it, at the hyperparameters it returns.
  setData(x, y);

  // Informed multi-start (see GpRegressor::fit): prototype parameters plus
  // the median-distance data initialization of the input kernel, plus
  // random perturbations of the latter, all drawn before the fan-out.
  std::vector<Vec> starts;
  starts.push_back(packedParams());
  {
    Matern52Ard init = kernel_;
    init.initFromData(x_);
    for (double factor : {1.0, 0.25}) {
      Matern52Ard k2 = init;
      k2.scaleLengthscales(factor);
      Vec p = k2.params();
      p.insert(p.end(), l_entries_.begin(), l_entries_.end());
      p.insert(p.end(), log_noise_.begin(), log_noise_.end());
      starts.push_back(std::move(p));
    }
    for (int s2 = 0; s2 < opts_.mle_restarts; ++s2) {
      Vec q = starts[1];
      for (auto& v : q) v += rng.uniform(-1.0, 1.0);
      starts.push_back(std::move(q));
    }
  }
  opt::LbfgsOptions lopts;
  lopts.max_iters = opts_.max_mle_iters;
  const bool timed = obs::metrics().enabled();
  std::mutex ws_mu;
  std::vector<std::shared_ptr<LmlWorkspace>> workspaces;
  const auto make_objective = [&] {
    auto ws = std::make_shared<LmlWorkspace>(*this, timed);
    if (timed) {
      std::lock_guard<std::mutex> lock(ws_mu);
      workspaces.push_back(ws);
    }
    return opt::GradObjectiveFn(
        [this, ws](const Vec& p, Vec* g) { return negLml(p, g, *ws); });
  };
  const opt::MultiStartResult r =
      opt::minimizeFromStarts(make_objective, starts, lopts);
  if (timed) {
    for (int ph = 0; ph < kMlePhases; ++ph) {
      double sum = 0.0;
      for (const auto& ws : workspaces) sum += ws->ledger[ph];
      obs::metrics().observe(kMlePhaseMetric[ph], sum);
    }
    workspaces.clear();
  }
  last_fit_iters_ = r.iterations;
  last_fit_budget_ = r.budget;
  if (std::isfinite(r.best.value)) applyPacked(r.best.x);

  rebuildDense();
}

double MultiTaskGp::evalNegLogMarginalLikelihood(const Vec& packed,
                                                 Vec* grad) const {
  LmlWorkspace ws(*this, /*timed=*/false);
  return negLml(packed, grad, ws);
}

opt::GradObjectiveFn MultiTaskGp::lmlObjective() const {
  auto ws = std::make_shared<LmlWorkspace>(*this, /*timed=*/false);
  return [this, ws](const Vec& p, Vec* g) { return negLml(p, g, *ws); };
}

void MultiTaskGp::setData(const Dataset& x, const linalg::Matrix& y) {
  x_ = x;
  y_raw_ = y;
  const std::size_t n = x_.size();
  // Task-major factor-row ordering (row = m*n + i).
  row_point_.resize(n * m_);
  row_task_.resize(n * m_);
  for (std::size_t mm = 0; mm < m_; ++mm)
    for (std::size_t i = 0; i < n; ++i) {
      row_point_[mm * n + i] = i;
      row_task_[mm * n + i] = mm;
    }
  standardizeTargets();
}

void MultiTaskGp::rebuildDense() {
  linalg::Matrix gram;
  stackGram(kernel_.gram(x_), buildB(l_entries_, m_), log_noise_, gram);
  // Throw (not assert) on an unfactorizable stacked Gram: Release builds
  // compile the assert out and the subsequent solves would read an empty
  // factor. The server's supervision layer turns this throw into a
  // per-campaign failure + restart instead of a process death.
  if (!state_.refitDense(gram))
    throw std::runtime_error(
        "gp: multi-task Gram not factorizable even with escalated jitter "
        "(non-finite entries?)");
  state_.solveTargets();
}

void MultiTaskGp::refitPosterior(const Dataset& x, const linalg::Matrix& y) {
  assert(!x.empty() && y.rows() == x.size() && y.cols() == m_);
  setData(x, y);
  rebuildDense();
}

void MultiTaskGp::standardizeTargets() {
  const std::size_t rows = row_point_.size();
  state_.standardizers.resize(m_);
  for (std::size_t mm = 0; mm < m_; ++mm)
    state_.standardizers[mm] = linalg::Standardizer::fit(y_raw_.col(mm));
  state_.y_std.resize(rows);
  for (std::size_t r = 0; r < rows; ++r)
    state_.y_std[r] = state_.standardizers[row_task_[r]].transform(
        y_raw_(row_point_[r], row_task_[r]));
  state_.solved = false;
}

bool MultiTaskGp::appendPoint(const Vec& x, const double* y_row) {
  const auto appendRaw = [&] {
    const std::size_t n = y_raw_.rows();
    linalg::Matrix grown(n + 1, m_);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t mm = 0; mm < m_; ++mm) grown(i, mm) = y_raw_(i, mm);
    for (std::size_t mm = 0; mm < m_; ++mm) grown(n, mm) = y_row[mm];
    y_raw_ = std::move(grown);
  };

  if (!fitted() || state_.chol->jitterUsed() != 0.0 ||
      state_.rows() != x_.size() * m_) {
    x_.push_back(x);
    appendRaw();
    refitPosterior(x_, y_raw_);
    return false;
  }

  // Bordered rank-append: the new point's M factor rows go at the tail (a
  // symmetric permutation of the task-major stacked Gram, so the posterior
  // is exact). Cross-covariances against every existing factor row follow
  // the ICM structure K[(i,mi),(j,mj)] = B(mi,mj) k(x_i, x_j).
  const std::size_t new_pt = x_.size();
  const Vec kx = kernel_.crossVec(x_, x);
  const double kss = kernel_.eval(x, x);
  const linalg::Matrix b = buildB(l_entries_, m_);
  x_.push_back(x);
  appendRaw();
  for (std::size_t mm = 0; mm < m_; ++mm) {
    const std::size_t rows = state_.rows();
    Vec cross(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const double kval = row_point_[r] == new_pt ? kss : kx[row_point_[r]];
      cross[r] = b(mm, row_task_[r]) * kval;
    }
    const double diag = b(mm, mm) * kss + std::exp(2.0 * log_noise_[mm]);
    if (!state_.appendRow(cross, diag)) {
      // Numerically unsafe mid-point: discard any partially appended task
      // rows by rebuilding densely (also restores task-major ordering).
      refitPosterior(x_, y_raw_);
      return false;
    }
    row_point_.push_back(new_pt);
    row_task_.push_back(mm);
  }
  return true;
}

void MultiTaskGp::truncatePoints(std::size_t n) {
  assert(fitted() && n >= 1 && n <= x_.size() &&
         state_.rows() == x_.size() * m_);
  if (n == x_.size()) return;
  assert(n * m_ >= state_.base_rows &&
         "cannot truncate into the dense task-major base block");
  x_.resize(n);
  linalg::Matrix shrunk(n, m_);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t mm = 0; mm < m_; ++mm) shrunk(i, mm) = y_raw_(i, mm);
  y_raw_ = std::move(shrunk);
  row_point_.resize(n * m_);
  row_task_.resize(n * m_);
  state_.truncateTo(n * m_);
}

void MultiTaskGp::finishUpdate() {
  if (state_.solved) return;
  standardizeTargets();
  state_.solveTargets();
}

bool MultiTaskGp::appendObservation(const Vec& x, const Vec& y_row) {
  assert(y_row.size() == m_);
  const bool incremental = appendPoint(x, y_row.data());
  finishUpdate();
  return incremental;
}

void MultiTaskGp::truncateToPoints(std::size_t n) {
  truncatePoints(n);
  finishUpdate();
}

bool MultiTaskGp::updatePoints(std::size_t keep, const Dataset& x,
                               const linalg::Matrix& y) {
  assert(y.rows() == x.size() && (x.empty() || y.cols() == m_));
  truncatePoints(keep);
  bool incremental = true;
  for (std::size_t i = 0; i < x.size(); ++i)
    incremental &= appendPoint(x[i], y.rowPtr(i));
  finishUpdate();
  return incremental;
}

linalg::Matrix MultiTaskGp::crossCov(const Vec& x,
                                     const linalg::Matrix& b) const {
  const std::size_t rows = state_.rows();
  const Vec kxstar = kernel_.crossVec(x_, x);
  // K_*[r, mp] = B(task(r), mp) kx(point(r)).
  linalg::Matrix kstar(rows, m_);
  for (std::size_t r = 0; r < rows; ++r) {
    const double kval = kxstar[row_point_[r]];
    double* dst = kstar.rowPtr(r);
    const double* brow = b.rowPtr(row_task_[r]);
    for (std::size_t mp = 0; mp < m_; ++mp) dst[mp] = brow[mp] * kval;
  }
  return kstar;
}

Vec MultiTaskGp::meanFrom(const linalg::Matrix& kstar) const {
  assert(fitted() && state_.solved);
  // K_*^T alpha, per task.
  Vec mean(m_);
  for (std::size_t mp = 0; mp < m_; ++mp) {
    double mu = 0.0;
    for (std::size_t a = 0; a < kstar.rows(); ++a)
      mu += kstar(a, mp) * state_.alpha[a];
    mean[mp] = state_.standardizers[mp].inverse(mu);
  }
  return mean;
}

Vec MultiTaskGp::predictMean(const Vec& x) const {
  assert(fitted());
  return meanFrom(crossCov(x, buildB(l_entries_, m_)));
}

MultiPosterior MultiTaskGp::predict(const Vec& x) const {
  assert(fitted());
  const std::size_t rows = state_.rows();
  const linalg::Matrix b = buildB(l_entries_, m_);
  const linalg::Matrix kstar = crossCov(x, b);
  const double kss = kernel_.eval(x, x);

  MultiPosterior post;
  post.mean = meanFrom(kstar);
  post.cov = linalg::Matrix(m_, m_);

  // Covariance: B kss - V^T V with V = L^{-1} K_* — the same Schur
  // complement as K_*^T K^{-1} K_* but through one forward substitution
  // instead of two, and V^T V keeps the reduction symmetric PSD by
  // construction. The single-point path runs one per-vector substitution
  // per task column, matching GpRegressor::predict; each column is
  // bit-identical to the multi-RHS path predictBatch takes.
  linalg::Matrix v(rows, m_);
  {
    Vec col(rows);
    for (std::size_t mp = 0; mp < m_; ++mp) {
      for (std::size_t a = 0; a < rows; ++a) col[a] = kstar(a, mp);
      const Vec vc = state_.chol->solveLower(col);
      for (std::size_t a = 0; a < rows; ++a) v(a, mp) = vc[a];
    }
  }
  for (std::size_t mp = 0; mp < m_; ++mp)
    for (std::size_t mq = 0; mq < m_; ++mq) {
      double red = 0.0;
      for (std::size_t a = 0; a < rows; ++a) red += v(a, mp) * v(a, mq);
      double cz = b(mp, mq) * kss - red;
      if (mp == mq) cz = std::max(cz, 0.0);
      post.cov(mp, mq) = cz * state_.standardizers[mp].stddev *
                         state_.standardizers[mq].stddev;
    }
  post.cov.symmetrize();
  return post;
}

std::vector<MultiPosterior> MultiTaskGp::predictBatch(const Dataset& x) const {
  assert(fitted() && state_.solved);
  std::vector<MultiPosterior> out;
  if (x.empty()) return out;
  out.reserve(x.size());
  const std::size_t rows = state_.rows();
  const std::size_t nc = x.size();
  const linalg::Matrix b = buildB(l_entries_, m_);
  // One cross-Gram over all candidates and ONE multi-RHS forward substitution
  // for the whole (candidate x task) RHS block — the covariance uses the same
  // B kss - V^T V Schur complement as predict(), and the per-candidate
  // reductions below run in the same index order, so every entry is
  // bit-identical to the scalar path.
  const linalg::Matrix kx = kernel_.cross(x_, x);
  linalg::Matrix kstar(rows, nc * m_);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* kxp = kx.rowPtr(row_point_[r]);
    const double* brow = b.rowPtr(row_task_[r]);
    double* dst = kstar.rowPtr(r);
    for (std::size_t c = 0; c < nc; ++c) {
      const double kval = kxp[c];
      for (std::size_t mp = 0; mp < m_; ++mp) dst[c * m_ + mp] = brow[mp] * kval;
    }
  }
  const linalg::Matrix v = state_.chol->solveLower(kstar);

  // One row sweep per candidate accumulates all m means and m^2 covariance
  // reductions together: each accumulator still sums its terms in ascending
  // row order, so folding the sweeps changes memory traffic only (one pass
  // over the kstar/v rows instead of m + m^2 strided column walks), never a
  // single bit of any sum.
  Vec mu(m_);
  std::vector<double> red(m_ * m_);
  for (std::size_t c = 0; c < nc; ++c) {
    const double kss = kernel_.eval(x[c], x[c]);
    MultiPosterior post;
    post.mean.resize(m_);
    post.cov = linalg::Matrix(m_, m_);
    std::fill(mu.begin(), mu.end(), 0.0);
    std::fill(red.begin(), red.end(), 0.0);
    for (std::size_t a = 0; a < rows; ++a) {
      const double* ks = kstar.rowPtr(a) + c * m_;
      const double* vr = v.rowPtr(a) + c * m_;
      const double al = state_.alpha[a];
      for (std::size_t mp = 0; mp < m_; ++mp) {
        mu[mp] += ks[mp] * al;
        for (std::size_t mq = 0; mq < m_; ++mq)
          red[mp * m_ + mq] += vr[mp] * vr[mq];
      }
    }
    for (std::size_t mp = 0; mp < m_; ++mp)
      post.mean[mp] = state_.standardizers[mp].inverse(mu[mp]);
    for (std::size_t mp = 0; mp < m_; ++mp)
      for (std::size_t mq = 0; mq < m_; ++mq) {
        double cz = b(mp, mq) * kss - red[mp * m_ + mq];
        if (mp == mq) cz = std::max(cz, 0.0);
        post.cov(mp, mq) = cz * state_.standardizers[mp].stddev *
                           state_.standardizers[mq].stddev;
      }
    post.cov.symmetrize();
    out.push_back(std::move(post));
  }
  return out;
}

linalg::Matrix MultiTaskGp::taskCovariance() const {
  linalg::Matrix b = buildB(l_entries_, m_);
  // Report in original target units.
  for (std::size_t i = 0; i < m_; ++i)
    for (std::size_t j = 0; j < m_; ++j)
      b(i, j) *= state_.standardizers.empty()
                     ? 1.0
                     : state_.standardizers[i].stddev *
                           state_.standardizers[j].stddev;
  return b;
}

linalg::Matrix MultiTaskGp::taskCorrelation() const {
  const linalg::Matrix b = taskCovariance();
  linalg::Matrix c(m_, m_);
  for (std::size_t i = 0; i < m_; ++i)
    for (std::size_t j = 0; j < m_; ++j)
      c(i, j) = b(i, j) / std::sqrt(b(i, i) * b(j, j));
  return c;
}

}  // namespace cmmfo::gp
