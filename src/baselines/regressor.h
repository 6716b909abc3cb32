#pragma once

#include <vector>

#include "rng/rng.h"

namespace cmmfo::baselines {

/// A single-output regressor over feature vectors: what the regression
/// baselines fit once per objective (`Mlp` for ANN, `Gbrt` for BT and DAC19).
class Regressor {
 public:
  virtual ~Regressor() = default;
  virtual void fit(const std::vector<std::vector<double>>& x,
                   const std::vector<double>& y, rng::Rng& rng) = 0;
  virtual double predict(const std::vector<double>& x) const = 0;
};

}  // namespace cmmfo::baselines
