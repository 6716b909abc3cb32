#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace cmmfo::gp {

using Vec = std::vector<double>;
/// A dataset is a list of input points (row vectors).
using Dataset = std::vector<Vec>;

/// Pairwise state of one fixed training set for repeated Gram and gradient
/// evaluations under changing parameters (one MLE start): each
/// Matern52Ard::pairGram() stores every unordered pair's kernel value and
/// shape derivative, which gramGradTrace() then reads, so one evaluation
/// spends one distance, one square root and one exponential per pair.
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

/// Matern-5/2 ARD kernel, k_C of Eq. (9) (the paper's choice, "to avoid
/// unrealistic smoothness"):
///   k(x,y) = sf^2 * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r),
///   r^2 = sum_d (x_d - y_d)^2 / l_d^2.
///
/// All tunable hyperparameters are exposed in LOG space so that optimizers
/// can work unconstrained while the lengthscales and the signal variance
/// stay positive: [log l_1 .. log l_D, log sf]. When `unit_variance` is true
/// the signal variance is pinned at 1 and not exposed as a parameter — used
/// inside the multi-task model where the task covariance matrix B already
/// carries all output scales (Eq. 9: Sigma_ij = K_ij * k_C(x, x')).
class Matern52Ard {
 public:
  explicit Matern52Ard(std::size_t dim, bool unit_variance = false);

  std::size_t dim() const { return dim_; }
  double lengthscale(std::size_t d) const;
  double signalVariance() const { return sf2_; }
  void setLengthscale(std::size_t d, double value);
  void setSignalStddev(double value);

  std::size_t numParams() const { return dim_ + (unit_variance_ ? 0 : 1); }
  /// Current log-parameters.
  Vec params() const;
  void setParams(const Vec& p);

  double eval(const Vec& x, const Vec& y) const;

  /// dK(X,X)/d log-param p. The reference gramGradTrace() must match.
  linalg::Matrix gramGrad(const Dataset& x, std::size_t p) const;

  /// K(X, X) of the set bound to `pairs`, written into `k` (storage reused
  /// when already n x n), evaluating each unordered pair once and keeping
  /// its value and shape derivative in `pairs`: r2, sqrt and exp once per
  /// pair, the same operations eval() spends on it, so entry (i, j),
  /// i >= j, is bit-identical to eval(x_i, x_j).
  void pairGram(PairCache& pairs, linalg::Matrix& k) const;

  /// Trace contraction the marginal-likelihood gradient needs:
  /// tr[p] = sum_ij w(i, j) * gramGrad(x, p)(i, j), accumulated in row-major
  /// (i, j) order, for every parameter p (tr is resized to numParams()),
  /// from `pairs` as the last pairGram() at the current parameters left it.
  /// Reads the same per-parameter terms gramGrad writes (differences taken
  /// as x[min(i,j)] - x[max(i,j)], as gramGrad takes them), with no n x n
  /// derivative matrices, so it is bit-identical to building each gramGrad
  /// matrix and contracting it in that order.
  void gramGradTrace(const PairCache& pairs, const linalg::Matrix& w,
                     Vec& tr) const;

  /// Median-distance heuristic: per-dimension lengthscale = median of the
  /// non-zero pairwise |x_d - y_d| (subsampled), floored at 1e-3. MLE
  /// landscapes for GP kernels have an "everything is noise" local optimum
  /// that swallows gradient descent when the initial lengthscale is far
  /// longer than the data's variation scale; starting near the median
  /// pairwise distance avoids it.
  void initFromData(const Dataset& x);

  /// Multiply every lengthscale by `factor`. Used to build a
  /// multi-resolution ladder of MLE starts: the marginal-likelihood
  /// landscape typically has one basin per plausible variation scale, and a
  /// ladder of starts visits several of them.
  void scaleLengthscales(double factor);

  /// Symmetric Gram matrix K(X, X): pairGram() on a cache bound to x.
  linalg::Matrix gram(const Dataset& x) const;
  /// Cross-covariance K(X, Z), rows indexed by X.
  linalg::Matrix cross(const Dataset& x, const Dataset& z) const;
  /// Covariance vector k(X, z).
  Vec crossVec(const Dataset& x, const Vec& z) const;

 private:
  /// Scaled squared distance r2 = sum_d (x_d - y_d)^2 / l_d^2.
  double scaledSqDist(const Vec& x, const Vec& y) const;
  /// Re-derive the cached exp(-log_ls_) / exp(2 log_sf_) values. Every
  /// parameter mutator calls this so eval() spends no transcendentals on
  /// parameters — the same exp of the same argument, just hoisted out of
  /// the O(n^2) pair loops, so kernel values are bit-identical.
  void refreshParamCache();

  std::size_t dim_;
  bool unit_variance_;
  Vec log_ls_;          // per-dimension log lengthscales
  double log_sf_ = 0.0; // log signal stddev (ignored if unit_variance_)
  Vec inv_ls_;          // exp(-log_ls_) per dimension
  double sf2_ = 1.0;    // exp(2 log_sf_), pinned at 1 when unit_variance_
};

}  // namespace cmmfo::gp
