#pragma once

#include "gp/kernel.h"

namespace cmmfo::gp {

/// Shared implementation for stationary ARD kernels parameterized by
/// per-dimension log-lengthscales and (optionally) a log signal stddev.
///
/// When `unit_variance` is true the signal variance is pinned at 1 and not
/// exposed as a parameter — used inside the multi-task model where the task
/// covariance matrix B already carries all output scales (Eq. 9 of the
/// paper: Sigma_ij = K_ij * k_C(x, x')).
class ArdKernelBase : public Kernel {
 public:
  ArdKernelBase(std::size_t dim, bool unit_variance);

  std::size_t dim() const { return dim_; }
  double lengthscale(std::size_t d) const;
  double signalVariance() const;
  void setLengthscale(std::size_t d, double value);
  void setSignalStddev(double value);

  std::size_t numParams() const override;
  Vec params() const override;
  void setParams(const Vec& p) override;

  double eval(const Vec& x, const Vec& y) const override;
  linalg::Matrix gramGrad(const Dataset& x, std::size_t p) const override;
  /// One pass over the pairs for every parameter: r2, sqrt and exp once
  /// per unordered pair, the value and the shape derivative both derived
  /// from them (the same operations eval() and gramGrad() spend on the
  /// pair, so the entries keep their bits).
  void pairGram(PairCache& pairs, linalg::Matrix& k) const override;
  /// Reads the pair cache: the same per-parameter terms gramGrad writes
  /// (differences taken as x[min(i,j)] - x[max(i,j)], as gramGrad takes
  /// them), with no n x n derivative matrices.
  void gramGradTrace(const PairCache& pairs, const linalg::Matrix& w,
                     Vec& tr) const override;
  /// Median-distance heuristic: per-dimension lengthscale = median of the
  /// non-zero pairwise |x_d - y_d| (subsampled), floored at 1e-3.
  void initFromData(const Dataset& x) override;
  void scaleLengthscales(double factor) override;

 protected:
  /// Scaled squared distance r2 = sum_d (x_d - y_d)^2 / l_d^2.
  double scaledSqDist(const Vec& x, const Vec& y) const;
  /// The kernel value as a function of r2 (excluding the signal variance),
  /// and its derivative d shape / d r2, for `count` pairs: r2_shape[p]
  /// holds r2 on entry and shape(r2) on return, grad[p] receives the
  /// derivative. One square root / exponential per pair; every caller
  /// (eval, pairGram, gramGrad) goes through it, so they share its bits.
  virtual void shapes(std::size_t count, double* r2_shape,
                      double* grad) const = 0;

  std::size_t dim_;
  bool unit_variance_;
  Vec log_ls_;          // per-dimension log lengthscales
  double log_sf_ = 0.0; // log signal stddev (ignored if unit_variance_)

 private:
  /// Re-derive the cached exp(-log_ls_) / exp(2 log_sf_) values. Every
  /// parameter mutator calls this so eval() spends no transcendentals on
  /// parameters — the same exp of the same argument, just hoisted out of
  /// the O(n^2) pair loops, so kernel values are bit-identical.
  void refreshParamCache();
  Vec inv_ls_;          // exp(-log_ls_) per dimension
  double sf2_ = 1.0;    // exp(2 log_sf_), pinned at 1 when unit_variance_
};

/// Squared-exponential (RBF) ARD kernel:
///   k(x,y) = sf^2 * exp(-r2 / 2).
class RbfArd final : public ArdKernelBase {
 public:
  explicit RbfArd(std::size_t dim, bool unit_variance = false)
      : ArdKernelBase(dim, unit_variance) {}
  std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<RbfArd>(*this);
  }
  std::string name() const override { return "RbfArd"; }

 protected:
  void shapes(std::size_t count, double* r2_shape,
              double* grad) const override;
};

/// Matern-5/2 ARD kernel (the paper's choice, "to avoid unrealistic
/// smoothness"):
///   k(x,y) = sf^2 * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r),  r = sqrt(r2).
class Matern52Ard final : public ArdKernelBase {
 public:
  explicit Matern52Ard(std::size_t dim, bool unit_variance = false)
      : ArdKernelBase(dim, unit_variance) {}
  std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<Matern52Ard>(*this);
  }
  std::string name() const override { return "Matern52Ard"; }

 protected:
  void shapes(std::size_t count, double* r2_shape,
              double* grad) const override;
};

}  // namespace cmmfo::gp
