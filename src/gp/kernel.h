#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace cmmfo::gp {

using Vec = std::vector<double>;
/// A dataset is a list of input points (row vectors).
using Dataset = std::vector<Vec>;

/// Covariance function interface.
///
/// All tunable hyperparameters are exposed in LOG space so that optimizers
/// can work unconstrained while the underlying quantities (lengthscales,
/// variances) stay positive. `gramGrad` returns the derivative of the Gram
/// matrix with respect to one log-parameter, which is what the marginal
/// likelihood gradient needs.
class Kernel {
 public:
  virtual ~Kernel() = default;

  virtual double eval(const Vec& x, const Vec& y) const = 0;

  virtual std::size_t numParams() const = 0;
  /// Current log-parameters.
  virtual Vec params() const = 0;
  virtual void setParams(const Vec& p) = 0;

  /// dK(X,X)/d log-param p.
  virtual linalg::Matrix gramGrad(const Dataset& x, std::size_t p) const = 0;

  /// Trace contraction the marginal-likelihood gradient needs:
  /// tr[p] = sum_ij w(i, j) * gramGrad(x, p)(i, j), accumulated in row-major
  /// (i, j) order, for every parameter p (tr is resized to numParams()).
  /// The default builds each gramGrad matrix (composites use it); a kernel
  /// may override it with a fused pass that must stay bit-identical.
  virtual void gramGradTrace(const Dataset& x, const linalg::Matrix& w,
                             Vec& tr) const;

  /// Data-driven hyperparameter initialization (e.g. the median-distance
  /// heuristic for lengthscales). MLE landscapes for GP kernels have an
  /// "everything is noise" local optimum that swallows gradient descent when
  /// the initial lengthscale is far longer than the data's variation scale;
  /// starting near the median pairwise distance avoids it. Default: no-op.
  virtual void initFromData(const Dataset& x) { (void)x; }

  /// Multiply every lengthscale by `factor` (no-op for kernels without
  /// lengthscales). Used to build a multi-resolution ladder of MLE starts:
  /// the marginal-likelihood landscape typically has one basin per plausible
  /// variation scale, and a ladder of starts visits several of them.
  virtual void scaleLengthscales(double factor) { (void)factor; }

  virtual std::unique_ptr<Kernel> clone() const = 0;
  virtual std::string name() const = 0;

  /// Symmetric Gram matrix K(X, X).
  linalg::Matrix gram(const Dataset& x) const;
  /// Cross-covariance K(X, Z), rows indexed by X.
  linalg::Matrix cross(const Dataset& x, const Dataset& z) const;
  /// Covariance vector k(X, z).
  Vec crossVec(const Dataset& x, const Vec& z) const;
};

using KernelPtr = std::unique_ptr<Kernel>;

}  // namespace cmmfo::gp
