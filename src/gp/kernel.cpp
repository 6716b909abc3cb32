#include "gp/kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cmmfo::gp {

namespace {
constexpr double kSqrt5 = 2.2360679774997896;

/// The kernel value as a function of r2 (excluding the signal variance) and
/// its derivative d shape / d r2: one square root and one exponential.
/// Every caller (eval, pairGram, gramGrad) goes through it, so they share
/// its bits.
struct ShapeGrad {
  double shape;
  double grad;
};

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

void PairCache::bind(const Dataset& x) {
  this->x = &x;
  const std::size_t pairs = x.size() * (x.size() + 1) / 2;
  value.resize(pairs);
  dshape.resize(pairs);
}

Matern52Ard::Matern52Ard(std::size_t dim, bool unit_variance)
    : dim_(dim), unit_variance_(unit_variance), log_ls_(dim, 0.0) {
  refreshParamCache();
}

void Matern52Ard::refreshParamCache() {
  inv_ls_.resize(dim_);
  for (std::size_t d = 0; d < dim_; ++d) inv_ls_[d] = std::exp(-log_ls_[d]);
  sf2_ = unit_variance_ ? 1.0 : std::exp(2.0 * log_sf_);
}

double Matern52Ard::lengthscale(std::size_t d) const {
  return std::exp(log_ls_[d]);
}

void Matern52Ard::setLengthscale(std::size_t d, double value) {
  log_ls_[d] = std::log(value);
  refreshParamCache();
}

void Matern52Ard::setSignalStddev(double value) {
  log_sf_ = std::log(value);
  refreshParamCache();
}

Vec Matern52Ard::params() const {
  Vec p = log_ls_;
  if (!unit_variance_) p.push_back(log_sf_);
  return p;
}

void Matern52Ard::setParams(const Vec& p) {
  assert(p.size() == numParams());
  for (std::size_t d = 0; d < dim_; ++d) log_ls_[d] = p[d];
  if (!unit_variance_) log_sf_ = p[dim_];
  refreshParamCache();
}

void Matern52Ard::initFromData(const Dataset& x) {
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

void Matern52Ard::scaleLengthscales(double factor) {
  const double lf = std::log(factor);
  for (auto& l : log_ls_) l += lf;
  refreshParamCache();
}

double Matern52Ard::scaledSqDist(const Vec& x, const Vec& y) const {
  assert(x.size() >= dim_ && y.size() >= dim_);
  double r2 = 0.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    const double diff = (x[d] - y[d]) * inv_ls_[d];
    r2 += diff * diff;
  }
  return r2;
}

double Matern52Ard::eval(const Vec& x, const Vec& y) const {
  return sf2_ * matern52(scaledSqDist(x, y)).shape;
}

linalg::Matrix Matern52Ard::gramGrad(const Dataset& x, std::size_t p) const {
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
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double r2 = scaledSqDist(x[i], x[j]);
      const double diff = x[i][d] - x[j][d];
      const double sd = diff * diff * inv_l2;
      const double v = sf2_ * matern52(r2).grad * (-2.0 * sd);
      g(i, j) = v;
      g(j, i) = v;
    }
  return g;
}

void Matern52Ard::pairGram(PairCache& pairs, linalg::Matrix& k) const {
  const Dataset& x = *pairs.x;
  const std::size_t n = x.size();
  // r2 exactly as eval() forms it on (x[i], x[j]), i >= j, for every pair
  // first; then one matern52() per pair over the contiguous r2 array.
  double* value = pairs.value.data();
  double* dshape = pairs.dshape.data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      value[PairCache::index(i, j)] = scaledSqDist(x[i], x[j]);
  const std::size_t np = n * (n + 1) / 2;
  const double sf2 = sf2_;
  for (std::size_t p = 0; p < np; ++p) {
    const ShapeGrad sg = matern52(value[p]);
    value[p] = sf2 * sg.shape;
    dshape[p] = sf2 * sg.grad;
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

void Matern52Ard::gramGradTrace(const PairCache& pairs,
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

linalg::Matrix Matern52Ard::gram(const Dataset& x) const {
  PairCache pairs;
  pairs.bind(x);
  linalg::Matrix k;
  pairGram(pairs, k);
  return k;
}

linalg::Matrix Matern52Ard::cross(const Dataset& x, const Dataset& z) const {
  linalg::Matrix k(x.size(), z.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < z.size(); ++j) k(i, j) = eval(x[i], z[j]);
  return k;
}

Vec Matern52Ard::crossVec(const Dataset& x, const Vec& z) const {
  Vec k(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) k[i] = eval(x[i], z);
  return k;
}

}  // namespace cmmfo::gp
