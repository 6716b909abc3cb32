#pragma once

#include <map>

#include "hls/directives.h"
#include "hls/kernel_ir.h"

namespace cmmfo::hls {

/// One merged array/loop tree (Fig. 3b): a group of arrays whose index
/// loops overlap, plus the union of those loops.
struct MergedTree {
  std::vector<ArrayId> arrays;
  std::vector<LoopId> loops;
};

/// Build one tree per array (root = array, nodes = loops indexing it) and
/// merge trees sharing loop nodes — steps 3-4 of Algorithm 1.
std::vector<MergedTree> buildMergedTrees(const Kernel& kernel);

/// Is unrolling loop `l` compatible with partitioning array `a` as `type`?
/// Cyclic partitioning spreads *consecutive* elements across banks, so only
/// unit-stride (minor) index loops fan out across banks; block partitioning
/// is the dual and serves strided (major) index loops. This encodes the
/// Fig. 3 discussion ("L1 is incompatible with CYCLIC partitioning of A").
bool unrollCompatible(const Kernel& kernel, LoopId l, ArrayId a,
                      PartitionType type);

/// A partial assignment produced from one merged tree: unroll factors of
/// its loops (> 1 only) and partitions of its arrays.
struct GroupAssign {
  std::map<LoopId, int> unroll;
  std::map<ArrayId, ArrayDirective> part;
};

/// Backstop against combinatorial blowup in pathological specs; real
/// benchmark spaces stay far below this.
inline constexpr std::size_t kMaxPerGroup = 200000;

/// Lines 6-12 of Algorithm 1 for one merged tree: the all-default
/// assignment first, then each seed array's cyclic/block factors with the
/// compatible unroll factors and backtracked partitions, then the
/// all-COMPLETE corner when every array offers it. Stops at
/// `max_per_group` assignments.
std::vector<GroupAssign> enumerateGroup(const Kernel& kernel,
                                        const SpaceSpec& spec,
                                        const MergedTree& g,
                                        std::size_t max_per_group);

struct PruneStats {
  double raw_size = 0.0;
  std::size_t pruned_size = 0;
  double reduction_factor() const {
    return pruned_size == 0 ? 0.0
                            : raw_size / static_cast<double>(pruned_size);
  }
};

/// Smallest block of configurations (or Algorithm 1 enumeration steps) one
/// fork-join task of a space or ground-truth build takes (util::forBlocks):
/// a space below two grains builds inline on the calling thread. Every block writes only its own
/// slots, so the built space does not depend on the split.
inline constexpr std::size_t kBuildGrain = 1024;

/// Tree-based design-space pruning (Algorithm 1): enumerate only directive
/// configurations whose unroll and partition factors are mutually
/// compatible, with backtracked partition assignment for co-accessed
/// arrays, then expand orthogonal pipeline options and deduplicate.
///
/// The returned configurations always include the all-default baseline.
/// The cross product is hashed in blocks of kBuildGrain steps on the
/// fork-join pool; the result is the sequential walk's, in its order, with
/// the first configuration of each hash kept.
std::vector<DirectiveConfig> prunedConfigs(const Kernel& kernel,
                                           const SpaceSpec& spec,
                                           PruneStats* stats = nullptr);

/// Exhaustive enumeration of the RAW space (for tests and the pruning-off
/// ablation). Aborts via the `cap`: returns at most `cap` configurations,
/// enumerated in odometer order.
std::vector<DirectiveConfig> rawConfigs(const Kernel& kernel,
                                        const SpaceSpec& spec,
                                        std::size_t cap);

/// Post-hoc feasibility check used by tests: true iff every (unrolled loop,
/// partitioned array) pair in the configuration is compatible and factors
/// match, i.e. the configuration would survive Algorithm 1's rules.
bool isCompatibleConfig(const Kernel& kernel, const DirectiveConfig& cfg);

}  // namespace cmmfo::hls
