#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace cmmfo::gp {

using Vec = std::vector<double>;
/// A dataset is a list of input points (row vectors).
using Dataset = std::vector<Vec>;

/// Pairwise state of one fixed training set for repeated Gram and gradient
/// evaluations under changing parameters (one MLE start): each
/// Kernel::pairGram() stores every unordered pair's kernel value and shape
/// derivative, which gramGradTrace() then reads, so one evaluation spends
/// one distance, one square root and one exponential per pair.
struct PairCache {
  /// Bind to x, which must outlive the cache and stay unchanged.
  void bind(const Dataset& x);
  /// Slot of the unordered pair {i, j}, i >= j (i == j is the diagonal).
  static std::size_t index(std::size_t i, std::size_t j) {
    return i * (i + 1) / 2 + j;
  }

  const Dataset* x = nullptr;
  Vec value;   // k(x_i, x_j) per pair, from the last pairGram()
  Vec dshape;  // signal variance * d shape / d r2 per pair, likewise
};

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

  /// K(X, X) of the set bound to `pairs`, written into `k` (storage reused
  /// when already n x n), evaluating each unordered pair once and keeping
  /// its value and shape derivative in `pairs`. Entry (i, j), i >= j, is
  /// bit-identical to eval(x_i, x_j).
  virtual void pairGram(PairCache& pairs, linalg::Matrix& k) const = 0;

  /// Trace contraction the marginal-likelihood gradient needs:
  /// tr[p] = sum_ij w(i, j) * gramGrad(x, p)(i, j), accumulated in row-major
  /// (i, j) order, for every parameter p (tr is resized to numParams()),
  /// from `pairs` as the last pairGram() at the current parameters left it.
  /// Must be bit-identical to building each gramGrad matrix and contracting
  /// it in that order.
  virtual void gramGradTrace(const PairCache& pairs, const linalg::Matrix& w,
                             Vec& tr) const = 0;

  /// Data-driven hyperparameter initialization (e.g. the median-distance
  /// heuristic for lengthscales). MLE landscapes for GP kernels have an
  /// "everything is noise" local optimum that swallows gradient descent when
  /// the initial lengthscale is far longer than the data's variation scale;
  /// starting near the median pairwise distance avoids it.
  virtual void initFromData(const Dataset& x) = 0;

  /// Multiply every lengthscale by `factor`. Used to build a
  /// multi-resolution ladder of MLE starts: the marginal-likelihood
  /// landscape typically has one basin per plausible variation scale, and a
  /// ladder of starts visits several of them.
  virtual void scaleLengthscales(double factor) = 0;

  virtual std::unique_ptr<Kernel> clone() const = 0;
  virtual std::string name() const = 0;

  /// Symmetric Gram matrix K(X, X): pairGram() on a cache bound to x.
  linalg::Matrix gram(const Dataset& x) const;
  /// Cross-covariance K(X, Z), rows indexed by X.
  linalg::Matrix cross(const Dataset& x, const Dataset& z) const;
  /// Covariance vector k(X, z).
  Vec crossVec(const Dataset& x, const Vec& z) const;
};

using KernelPtr = std::unique_ptr<Kernel>;

}  // namespace cmmfo::gp
