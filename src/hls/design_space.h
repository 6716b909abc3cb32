#pragma once

#include "hls/encoding.h"
#include "hls/pruner.h"

namespace cmmfo::hls {

/// A materialized, encoded design space: the finite set X the Bayesian
/// optimizer samples from (every point is "already known except its
/// objective values", Sec. II-B).
///
/// Features are encoded in blocks of kBuildGrain configs on the fork-join
/// pool, each into its own pre-sized slot.
class DesignSpace {
 public:
  /// Build the pruned space (Algorithm 1).
  static DesignSpace buildPruned(const Kernel& kernel, const SpaceSpec& spec);
  /// Build the raw Cartesian space, capped (pruning-off ablation).
  static DesignSpace buildRaw(const Kernel& kernel, const SpaceSpec& spec,
                              std::size_t cap);

  std::size_t size() const { return configs_.size(); }
  const DirectiveConfig& config(std::size_t i) const { return configs_[i]; }
  const std::vector<double>& features(std::size_t i) const {
    return features_[i];
  }
  std::size_t featureDim() const { return encoder_.dim(); }
  const Encoder& encoder() const { return encoder_; }
  const PruneStats& stats() const { return stats_; }
  const std::vector<std::vector<double>>& allFeatures() const {
    return features_;
  }

 private:
  DesignSpace(const Kernel& kernel, const SpaceSpec& spec,
              std::vector<DirectiveConfig> configs, PruneStats stats);

  Encoder encoder_;
  std::vector<DirectiveConfig> configs_;
  std::vector<std::vector<double>> features_;
  PruneStats stats_;
};

}  // namespace cmmfo::hls
