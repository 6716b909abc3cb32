#include "hls/design_space.h"

#include "util/fork_join.h"

namespace cmmfo::hls {

DesignSpace::DesignSpace(const Kernel& kernel, const SpaceSpec& spec,
                         std::vector<DirectiveConfig> configs, PruneStats stats)
    : encoder_(kernel, spec), configs_(std::move(configs)), stats_(stats) {
  features_.resize(configs_.size());
  util::forBlocks(configs_.size(), kBuildGrain,
                  [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                      features_[i] = encoder_.encode(configs_[i]);
                  });
}

DesignSpace DesignSpace::buildPruned(const Kernel& kernel,
                                     const SpaceSpec& spec) {
  PruneStats stats;
  auto configs = prunedConfigs(kernel, spec, &stats);
  return DesignSpace(kernel, spec, std::move(configs), stats);
}

DesignSpace DesignSpace::buildRaw(const Kernel& kernel, const SpaceSpec& spec,
                                  std::size_t cap) {
  PruneStats stats;
  stats.raw_size = spec.rawSize();
  auto configs = rawConfigs(kernel, spec, cap);
  stats.pruned_size = configs.size();
  return DesignSpace(kernel, spec, std::move(configs), stats);
}

}  // namespace cmmfo::hls
