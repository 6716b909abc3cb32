#include "hls/pruner.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_set>

#include "util/fork_join.h"

namespace cmmfo::hls {

namespace {

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

bool containsType(const std::vector<PartitionType>& v, PartitionType t) {
  return std::find(v.begin(), v.end(), t) != v.end();
}

/// Does loop l appear in the index of any reference to array a?
bool loopIndexesArray(const Kernel& k, LoopId l, ArrayId a) {
  for (std::size_t li = 0; li < k.numLoops(); ++li)
    for (const auto& ref : k.loop(static_cast<LoopId>(li)).refs) {
      if (ref.array != a) continue;
      for (const auto& [loop_id, role] : ref.index) {
        (void)role;
        if (loop_id == l) return true;
      }
    }
  return false;
}

}  // namespace

std::vector<MergedTree> buildMergedTrees(const Kernel& kernel) {
  const std::size_t na = kernel.numArrays();
  std::vector<std::vector<LoopId>> loops_of(na);
  for (std::size_t a = 0; a < na; ++a)
    loops_of[a] = kernel.loopsIndexingArray(static_cast<ArrayId>(a));

  // Union-find over arrays, merging on shared loop nodes.
  std::vector<std::size_t> parent(na);
  for (std::size_t i = 0; i < na; ++i) parent[i] = i;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t a = 0; a < na; ++a)
    for (std::size_t b = a + 1; b < na; ++b) {
      bool share = false;
      for (LoopId l : loops_of[a])
        if (std::find(loops_of[b].begin(), loops_of[b].end(), l) !=
            loops_of[b].end()) {
          share = true;
          break;
        }
      if (share) parent[find(a)] = find(b);
    }

  std::map<std::size_t, MergedTree> groups;
  for (std::size_t a = 0; a < na; ++a) {
    if (loops_of[a].empty()) continue;  // array never indexed by a loop var
    MergedTree& g = groups[find(a)];
    g.arrays.push_back(static_cast<ArrayId>(a));
    for (LoopId l : loops_of[a])
      if (std::find(g.loops.begin(), g.loops.end(), l) == g.loops.end())
        g.loops.push_back(l);
  }
  std::vector<MergedTree> out;
  for (auto& [root, g] : groups) {
    std::sort(g.arrays.begin(), g.arrays.end());
    std::sort(g.loops.begin(), g.loops.end());
    out.push_back(std::move(g));
  }
  return out;
}

bool unrollCompatible(const Kernel& kernel, LoopId l, ArrayId a,
                      PartitionType type) {
  if (!loopIndexesArray(kernel, l, a)) return true;  // unrelated pair
  switch (type) {
    case PartitionType::kComplete:
      return true;
    case PartitionType::kCyclic:
      return kernel.roleOf(l, a) == IndexRole::kMinor;
    case PartitionType::kBlock:
      return kernel.roleOf(l, a) == IndexRole::kMajor;
    case PartitionType::kNone:
      return false;  // parallel accesses would serialize on 2 ports
  }
  return false;
}

namespace {

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

std::vector<GroupAssign> enumerateGroup(const Kernel& kernel,
                                        const SpaceSpec& spec,
                                        const MergedTree& g,
                                        std::size_t max_per_group) {
  std::vector<GroupAssign> out;
  out.push_back({});  // all-default baseline for this tree

  // Lines 6-12 of Algorithm 1: seed from each root array node and each of
  // its partitioning factors; assign an unrolling factor to every loop node
  // of the tree (restricted to factors compatible with the seed partition);
  // then backtrack from the leaves, deriving partition factors for the
  // remaining arrays from the unroll factors of the loops that access them.
  for (ArrayId aj : g.arrays) {
    const auto& aopts = spec.arrays[aj];
    for (PartitionType type : aopts.types) {
      if (type != PartitionType::kCyclic && type != PartitionType::kBlock)
        continue;
      for (int f : aopts.factors) {
        if (f <= 1) continue;

        // Candidate unroll factors per loop node.
        std::vector<std::vector<int>> loop_opts(g.loops.size());
        for (std::size_t li = 0; li < g.loops.size(); ++li) {
          const LoopId l = g.loops[li];
          if (loopIndexesArray(kernel, l, aj)) {
            if (unrollCompatible(kernel, l, aj, type)) {
              // Compatible: unroll factors that tile the banking evenly.
              for (int u : spec.loops[l].unroll_factors)
                if (u == 1 || f % u == 0) loop_opts[li].push_back(u);
            } else {
              loop_opts[li] = {1};  // incompatible loops stay rolled
            }
          } else {
            // Unrelated to the seed array: unconstrained here; the
            // backtracking step below settles its own arrays' partitions.
            loop_opts[li] = spec.loops[l].unroll_factors;
          }
          if (loop_opts[li].empty()) loop_opts[li] = {1};
        }

        // Odometer over the per-loop unroll choices.
        std::vector<std::size_t> idx(g.loops.size(), 0);
        for (;;) {
          GroupAssign p;
          p.part[aj] = {type, f};
          bool seed_used = false;  // some loop exploits the full banking
          for (std::size_t li = 0; li < g.loops.size(); ++li) {
            const int u = loop_opts[li][idx[li]];
            if (u > 1) p.unroll[g.loops[li]] = u;
            if (u == f && loopIndexesArray(kernel, g.loops[li], aj))
              seed_used = true;
          }

          // Prune seeds whose banking exceeds every unroll: "more memory
          // resources without increasing the system parallelism".
          bool feasible = seed_used;

          // Backtrack: derive partitions for the other arrays from the
          // unrolled loops that access them. When unit-stride and strided
          // loops both touch an array, cyclic banking is preferred (it
          // serves the unit-stride accesses; the strided ones fall back to
          // port-limited service, which the performance model charges).
          if (feasible) {
            for (ArrayId ap : g.arrays) {
              if (ap == aj) continue;
              std::int64_t cyclic_need = 1;
              std::int64_t block_need = 1;
              for (const auto& [l, uf] : p.unroll) {
                if (!loopIndexesArray(kernel, l, ap)) continue;
                if (kernel.roleOf(l, ap) == IndexRole::kMinor)
                  cyclic_need = cyclic_need / gcd64(cyclic_need, uf) * uf;
                else
                  block_need = block_need / gcd64(block_need, uf) * uf;
              }
              PartitionType need_type = PartitionType::kNone;
              std::int64_t need = 1;
              if (cyclic_need > 1) {
                need_type = PartitionType::kCyclic;
                need = cyclic_need;
              } else if (block_need > 1) {
                need_type = PartitionType::kBlock;
                need = block_need;
              }
              if (need_type == PartitionType::kNone) continue;
              if (!containsType(spec.arrays[ap].types, need_type) ||
                  !contains(spec.arrays[ap].factors, static_cast<int>(need))) {
                feasible = false;
                break;
              }
              p.part[ap] = {need_type, static_cast<int>(need)};
            }
          }
          if (feasible) {
            out.push_back(std::move(p));
            if (out.size() >= max_per_group) return out;
          }

          std::size_t li = 0;
          for (; li < g.loops.size(); ++li) {
            if (++idx[li] < loop_opts[li].size()) break;
            idx[li] = 0;
          }
          if (li == g.loops.size()) break;
        }
      }
    }
  }

  // COMPLETE partitioning: supported when every array in the tree offers
  // it; all loops in the tree unroll to their largest factor.
  bool all_complete = true;
  for (ArrayId a : g.arrays)
    if (!containsType(spec.arrays[a].types, PartitionType::kComplete)) {
      all_complete = false;
      break;
    }
  if (all_complete) {
    GroupAssign p;
    for (ArrayId a : g.arrays)
      p.part[a] = {PartitionType::kComplete, kernel.array(a).size};
    for (LoopId l : g.loops) {
      const auto& fs = spec.loops[l].unroll_factors;
      p.unroll[l] = *std::max_element(fs.begin(), fs.end());
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<DirectiveConfig> prunedConfigs(const Kernel& kernel,
                                           const SpaceSpec& spec,
                                           PruneStats* stats) {
  assert(spec.loops.size() == kernel.numLoops());
  assert(spec.arrays.size() == kernel.numArrays());

  const std::vector<MergedTree> trees = buildMergedTrees(kernel);
  std::vector<std::vector<GroupAssign>> per_tree;
  per_tree.reserve(trees.size());
  for (const auto& t : trees)
    per_tree.push_back(enumerateGroup(kernel, spec, t, kMaxPerGroup));

  // Loops not tied to any array enumerate their unroll options freely.
  std::vector<LoopId> free_loops;
  for (std::size_t l = 0; l < kernel.numLoops(); ++l) {
    bool in_tree = false;
    for (const auto& t : trees)
      if (std::find(t.loops.begin(), t.loops.end(), static_cast<LoopId>(l)) !=
          t.loops.end()) {
        in_tree = true;
        break;
      }
    if (!in_tree && spec.loops[l].unroll_factors.size() > 1)
      free_loops.push_back(static_cast<LoopId>(l));
  }

  // Pipeline choices per loop: index 0 = off, i > 0 = on with the i-th II.
  std::vector<LoopId> pipe_loops;
  for (std::size_t l = 0; l < kernel.numLoops(); ++l)
    if (spec.loops[l].allow_pipeline)
      pipe_loops.push_back(static_cast<LoopId>(l));

  // Cross product over trees x free loops x pipeline choices, numbered as
  // one mixed-radix step index: digit k picks option d[k] of site k, with
  // pipeline choices fastest, then free loops, then trees.
  std::vector<std::size_t> radix;
  for (LoopId l : pipe_loops)
    radix.push_back(1 + spec.loops[l].pipeline_iis.size());
  for (LoopId l : free_loops)
    radix.push_back(spec.loops[l].unroll_factors.size());
  for (const auto& options : per_tree) radix.push_back(options.size());
  std::size_t steps = 1;
  for (std::size_t r : radix) steps *= r;

  const auto digitsOf = [&](std::size_t step) {
    std::vector<std::size_t> d(radix.size());
    for (std::size_t k = 0; k < radix.size(); ++k) {
      d[k] = step % radix[k];
      step /= radix[k];
    }
    return d;
  };
  // Writes every field of the step's configuration into `cfg`.
  const std::size_t free0 = pipe_loops.size();
  const std::size_t tree0 = free0 + free_loops.size();
  const auto fill = [&](const std::vector<std::size_t>& d,
                        DirectiveConfig& cfg) {
    cfg.loops.assign(kernel.numLoops(), LoopDirective{});
    cfg.arrays.assign(kernel.numArrays(), ArrayDirective{});
    for (std::size_t t = 0; t < per_tree.size(); ++t) {
      const GroupAssign& ga = per_tree[t][d[tree0 + t]];
      for (const auto& [l, u] : ga.unroll) cfg.loops[l].unroll = u;
      for (const auto& [a, ad] : ga.part) cfg.arrays[a] = ad;
    }
    for (std::size_t i = 0; i < free_loops.size(); ++i)
      cfg.loops[free_loops[i]].unroll =
          spec.loops[free_loops[i]].unroll_factors[d[free0 + i]];
    for (std::size_t i = 0; i < pipe_loops.size(); ++i)
      if (d[i] > 0) {
        cfg.loops[pipe_loops[i]].pipeline = true;
        cfg.loops[pipe_loops[i]].ii =
            spec.loops[pipe_loops[i]].pipeline_iis[d[i] - 1];
      }
  };

  // Hash every step in contiguous blocks on the fork-join pool, one scratch
  // configuration per block.
  std::vector<std::uint64_t> hashes(steps);
  util::forBlocks(steps, kBuildGrain, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> d = digitsOf(lo);
    DirectiveConfig scratch;
    for (std::size_t s = lo; s < hi; ++s) {
      fill(d, scratch);
      hashes[s] = scratch.hash();
      for (std::size_t k = 0; k < d.size() && ++d[k] == radix[k]; ++k)
        d[k] = 0;
    }
  });

  // Deduplicate in step order through one set: the first step with a given
  // hash wins, exactly as in a sequential walk (a later step with a
  // colliding hash is dropped even if its configuration differs). The kept
  // configurations are then built in blocks, each into its own slot.
  std::vector<std::size_t> kept;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(steps);
  for (std::size_t s = 0; s < steps; ++s)
    if (seen.insert(hashes[s]).second) kept.push_back(s);

  std::vector<DirectiveConfig> configs(kept.size());
  util::forBlocks(kept.size(), kBuildGrain,
                  [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                      fill(digitsOf(kept[i]), configs[i]);
                  });

  if (stats) {
    stats->raw_size = spec.rawSize();
    stats->pruned_size = configs.size();
  }
  return configs;
}

std::vector<DirectiveConfig> rawConfigs(const Kernel& kernel,
                                        const SpaceSpec& spec,
                                        std::size_t cap) {
  // Enumerate option indices per site with an odometer, capped.
  struct Site {
    bool is_loop;
    std::size_t id;
    std::size_t num_options;
  };
  std::vector<Site> sites;
  // Loop sites: unroll x pipeline-choice flattened.
  for (std::size_t l = 0; l < kernel.numLoops(); ++l) {
    const auto& lo = spec.loops[l];
    std::size_t n = lo.unroll_factors.size();
    if (lo.allow_pipeline) n *= 1 + lo.pipeline_iis.size();
    sites.push_back({true, l, n});
  }
  for (std::size_t a = 0; a < kernel.numArrays(); ++a) {
    const auto& ao = spec.arrays[a];
    std::size_t n = 0;
    for (PartitionType t : ao.types)
      n += (t == PartitionType::kCyclic || t == PartitionType::kBlock)
               ? ao.factors.size()
               : 1;
    sites.push_back({false, a, std::max<std::size_t>(n, 1)});
  }

  std::vector<DirectiveConfig> out;
  std::vector<std::size_t> idx(sites.size(), 0);
  while (out.size() < cap) {
    DirectiveConfig cfg;
    cfg.loops.resize(kernel.numLoops());
    cfg.arrays.resize(kernel.numArrays());
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const Site& site = sites[s];
      if (site.is_loop) {
        const auto& lo = spec.loops[site.id];
        const std::size_t nu = lo.unroll_factors.size();
        cfg.loops[site.id].unroll = lo.unroll_factors[idx[s] % nu];
        if (lo.allow_pipeline) {
          const std::size_t pc = idx[s] / nu;
          if (pc > 0) {
            cfg.loops[site.id].pipeline = true;
            cfg.loops[site.id].ii = lo.pipeline_iis[pc - 1];
          }
        }
      } else {
        const auto& ao = spec.arrays[site.id];
        std::size_t k = idx[s];
        for (PartitionType t : ao.types) {
          const std::size_t span =
              (t == PartitionType::kCyclic || t == PartitionType::kBlock)
                  ? ao.factors.size()
                  : 1;
          if (k < span) {
            cfg.arrays[site.id].type = t;
            cfg.arrays[site.id].factor =
                (t == PartitionType::kCyclic || t == PartitionType::kBlock)
                    ? ao.factors[k]
                : t == PartitionType::kComplete
                    ? kernel.array(static_cast<ArrayId>(site.id)).size
                    : 1;
            break;
          }
          k -= span;
        }
      }
    }
    out.push_back(std::move(cfg));

    std::size_t s = 0;
    for (; s < sites.size(); ++s) {
      if (++idx[s] < sites[s].num_options) break;
      idx[s] = 0;
    }
    if (s == sites.size()) break;
  }
  return out;
}

bool isCompatibleConfig(const Kernel& kernel, const DirectiveConfig& cfg) {
  for (std::size_t l = 0; l < cfg.loops.size(); ++l) {
    const int u = cfg.loops[l].unroll;
    if (u <= 1) continue;
    for (std::size_t a = 0; a < cfg.arrays.size(); ++a) {
      if (!loopIndexesArray(kernel, static_cast<LoopId>(l),
                            static_cast<ArrayId>(a)))
        continue;
      const ArrayDirective& ad = cfg.arrays[a];
      if (ad.type == PartitionType::kComplete) continue;
      // Unrolled loops must find their arrays banked...
      if (ad.type == PartitionType::kNone) return false;
      // ...and where the banking scheme serves this loop's access pattern,
      // the bank count must tile the unroll factor evenly.
      if (unrollCompatible(kernel, static_cast<LoopId>(l),
                           static_cast<ArrayId>(a), ad.type) &&
          ad.factor % u != 0)
        return false;
    }
  }
  return true;
}

}  // namespace cmmfo::hls
