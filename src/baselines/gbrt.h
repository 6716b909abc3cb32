#pragma once

#include <memory>
#include <vector>

#include "baselines/regressor.h"

namespace cmmfo::baselines {

/// Gradient-boosted regression trees (the "BT"/XGBoost-style baseline of
/// [7]-[9]): least-squares boosting over depth-limited CART trees, written
/// from scratch.
struct GbrtOptions {
  int num_trees = 200;
  int max_depth = 4;           // paper sweeps 1..6
  double learning_rate = 0.2;  // paper sweeps 0.1..0.5
  int min_samples_leaf = 2;
  /// Per-tree row subsampling fraction (stochastic gradient boosting).
  double subsample = 0.9;
};

class Gbrt final : public Regressor {
 public:
  using Options = GbrtOptions;

  explicit Gbrt(Options opts = {});

  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, rng::Rng& rng) override;
  double predict(const std::vector<double>& x) const override;

 private:
  struct Node {
    int feature = -1;         // -1 = leaf
    double threshold = 0.0;
    double value = 0.0;       // leaf prediction
    int left = -1, right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double eval(const std::vector<double>& x) const;
  };

  Tree buildTree(const std::vector<std::vector<double>>& x,
                 const std::vector<double>& residual,
                 const std::vector<std::size_t>& rows) const;
  int buildNode(Tree& tree, const std::vector<std::vector<double>>& x,
                const std::vector<double>& residual,
                std::vector<std::size_t> rows, int depth) const;

  Options opts_;
  double base_ = 0.0;
  std::vector<Tree> trees_;
};

}  // namespace cmmfo::baselines
