#include "gp/ard_kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cmmfo::gp {

ArdKernelBase::ArdKernelBase(std::size_t dim, bool unit_variance)
    : dim_(dim), unit_variance_(unit_variance), log_ls_(dim, 0.0) {
  refreshParamCache();
}

void ArdKernelBase::refreshParamCache() {
  inv_ls_.resize(dim_);
  for (std::size_t d = 0; d < dim_; ++d) inv_ls_[d] = std::exp(-log_ls_[d]);
  sf2_ = unit_variance_ ? 1.0 : std::exp(2.0 * log_sf_);
}

double ArdKernelBase::lengthscale(std::size_t d) const {
  return std::exp(log_ls_[d]);
}

double ArdKernelBase::signalVariance() const { return sf2_; }

void ArdKernelBase::setLengthscale(std::size_t d, double value) {
  log_ls_[d] = std::log(value);
  refreshParamCache();
}

void ArdKernelBase::setSignalStddev(double value) {
  log_sf_ = std::log(value);
  refreshParamCache();
}

std::size_t ArdKernelBase::numParams() const {
  return dim_ + (unit_variance_ ? 0 : 1);
}

Vec ArdKernelBase::params() const {
  Vec p = log_ls_;
  if (!unit_variance_) p.push_back(log_sf_);
  return p;
}

void ArdKernelBase::setParams(const Vec& p) {
  assert(p.size() == numParams());
  for (std::size_t d = 0; d < dim_; ++d) log_ls_[d] = p[d];
  if (!unit_variance_) log_sf_ = p[dim_];
  refreshParamCache();
}

void ArdKernelBase::initFromData(const Dataset& x) {
  if (x.size() < 2) return;
  // Cap the pair count so initialization stays cheap on large sets.
  const std::size_t stride = x.size() > 64 ? x.size() / 64 : 1;
  for (std::size_t d = 0; d < dim_; ++d) {
    std::vector<double> dists;
    for (std::size_t i = 0; i < x.size(); i += stride)
      for (std::size_t j = i + 1; j < x.size(); j += stride) {
        const double dd = std::fabs(x[i][d] - x[j][d]);
        if (dd > 0.0) dists.push_back(dd);
      }
    if (dists.empty()) continue;
    std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                     dists.end());
    log_ls_[d] = std::log(std::max(dists[dists.size() / 2], 1e-3));
  }
  refreshParamCache();
}

void ArdKernelBase::scaleLengthscales(double factor) {
  const double lf = std::log(factor);
  for (auto& l : log_ls_) l += lf;
  refreshParamCache();
}

double ArdKernelBase::scaledSqDist(const Vec& x, const Vec& y) const {
  assert(x.size() >= dim_ && y.size() >= dim_);
  double r2 = 0.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    const double diff = (x[d] - y[d]) * inv_ls_[d];
    r2 += diff * diff;
  }
  return r2;
}

double ArdKernelBase::eval(const Vec& x, const Vec& y) const {
  double shape = scaledSqDist(x, y), grad;
  shapes(1, &shape, &grad);
  return signalVariance() * shape;
}

linalg::Matrix ArdKernelBase::gramGrad(const Dataset& x, std::size_t p) const {
  const std::size_t n = x.size();
  linalg::Matrix g(n, n);
  if (!unit_variance_ && p == dim_) {
    // d/d log_sf of sf^2 * shape = 2 * k.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j) {
        const double v = 2.0 * eval(x[i], x[j]);
        g(i, j) = v;
        g(j, i) = v;
      }
    return g;
  }
  // d r2 / d log_l_d = -2 (x_d - y_d)^2 / l_d^2, so
  // dk / d log_l_d = sf^2 * shape'(r2) * (-2 sd), sd = (x_d-y_d)^2/l_d^2.
  const std::size_t d = p;
  assert(d < dim_);
  const double inv_l2 = std::exp(-2.0 * log_ls_[d]);
  const double sf2 = signalVariance();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double r2 = scaledSqDist(x[i], x[j]);
      const double diff = x[i][d] - x[j][d];
      const double sd = diff * diff * inv_l2;
      double shape = r2, grad = 0.0;
      shapes(1, &shape, &grad);
      const double v = sf2 * grad * (-2.0 * sd);
      g(i, j) = v;
      g(j, i) = v;
    }
  return g;
}

void ArdKernelBase::pairGram(PairCache& pairs, linalg::Matrix& k) const {
  const Dataset& x = *pairs.x;
  const std::size_t n = x.size();
  // r2 exactly as eval() forms it on (x[i], x[j]), i >= j.
  double* r2 = pairs.value.data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      r2[PairCache::index(i, j)] = scaledSqDist(x[i], x[j]);
  const std::size_t np = n * (n + 1) / 2;
  shapes(np, r2, pairs.dshape.data());
  const double sf2 = signalVariance();
  for (std::size_t p = 0; p < np; ++p) {
    pairs.value[p] = sf2 * pairs.value[p];
    pairs.dshape[p] = sf2 * pairs.dshape[p];
  }
  if (k.rows() != n || k.cols() != n) k = linalg::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* ki = k.rowPtr(i);
    const double* vi = pairs.value.data() + PairCache::index(i, 0);
    for (std::size_t j = 0; j <= i; ++j) {
      ki[j] = vi[j];
      k(j, i) = vi[j];
    }
  }
}

void ArdKernelBase::gramGradTrace(const PairCache& pairs,
                                  const linalg::Matrix& w, Vec& tr) const {
  const Dataset& x = *pairs.x;
  const std::size_t n = x.size();
  assert(w.rows() == n && w.cols() == n);
  tr.assign(numParams(), 0.0);
  // The same per-parameter terms gramGrad writes, each added to its own
  // accumulator in row-major order: bit-identical to contracting each
  // gramGrad matrix (ArdKernels.FusedTraceEqualsGramGradContraction). The
  // (i, j) and (j, i) terms read the same cached pair.
  Vec inv_l2(dim_);
  for (std::size_t d = 0; d < dim_; ++d) inv_l2[d] = std::exp(-2.0 * log_ls_[d]);
  double* t = tr.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* wi = w.rowPtr(i);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t lo = std::min(i, j), hi = std::max(i, j);
      const std::size_t p = PairCache::index(hi, lo);
      const double* a = x[lo].data();
      const double* b = x[hi].data();
      const double g = pairs.dshape[p];
      for (std::size_t d = 0; d < dim_; ++d) {
        const double diff = a[d] - b[d];
        const double sd = diff * diff * inv_l2[d];
        t[d] += wi[j] * (g * (-2.0 * sd));
      }
      if (!unit_variance_) t[dim_] += wi[j] * (2.0 * pairs.value[p]);
    }
  }
}

namespace {
struct ShapeGrad {
  double shape;
  double grad;
};

ShapeGrad rbf(double r2) {
  const double e = std::exp(-0.5 * r2);
  return {e, -0.5 * e};
}

constexpr double kSqrt5 = 2.2360679774997896;

// d shape / d r = -(5 r / 3)(1 + sqrt5 r) e^{-sqrt5 r}; d r / d r2 =
// 1 / (2 r); the r factors cancel, so the derivative's limit at r = 0 is
// finite and the expression below is smooth everywhere.
ShapeGrad matern52(double r2) {
  const double r = std::sqrt(r2);
  const double e = std::exp(-kSqrt5 * r);
  return {(1.0 + kSqrt5 * r + 5.0 * r2 / 3.0) * e,
          -(5.0 / 6.0) * (1.0 + kSqrt5 * r) * e};
}
}  // namespace

void RbfArd::shapes(std::size_t count, double* r2_shape, double* grad) const {
  for (std::size_t p = 0; p < count; ++p) {
    const ShapeGrad sg = rbf(r2_shape[p]);
    r2_shape[p] = sg.shape;
    grad[p] = sg.grad;
  }
}

void Matern52Ard::shapes(std::size_t count, double* r2_shape,
                         double* grad) const {
  for (std::size_t p = 0; p < count; ++p) {
    const ShapeGrad sg = matern52(r2_shape[p]);
    r2_shape[p] = sg.shape;
    grad[p] = sg.grad;
  }
}

}  // namespace cmmfo::gp
