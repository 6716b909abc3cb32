#pragma once

#include <vector>

#include "baselines/regressor.h"
#include "linalg/matrix.h"

namespace cmmfo::baselines {

/// Small fully-connected regression network (the "ANN" baseline of
/// Sec. V-A: 2 hidden layers), trained from scratch with Adam + MSE.
/// Inputs are the directive features; one network per objective.
struct MlpOptions {
  std::vector<std::size_t> hidden = {32, 32};
  int epochs = 2000;
  double learning_rate = 0.01;
  double weight_decay = 1e-5;
};

class Mlp final : public Regressor {
 public:
  using Options = MlpOptions;

  Mlp(std::size_t input_dim, Options opts = {});

  /// Full-batch training on (x, y); targets are standardized internally.
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, rng::Rng& rng) override;

  double predict(const std::vector<double>& x) const override;
  /// Training-set MSE after fit (standardized units).
  double trainingLoss() const { return final_loss_; }

 private:
  struct Layer {
    linalg::Matrix w;  // out x in
    std::vector<double> b;
  };

  /// Forward pass storing activations; returns output.
  double forward(const std::vector<double>& x,
                 std::vector<std::vector<double>>* acts) const;

  std::size_t input_dim_;
  Options opts_;
  std::vector<Layer> layers_;
  double y_mean_ = 0.0, y_std_ = 1.0;
  double final_loss_ = 0.0;
};

}  // namespace cmmfo::baselines
