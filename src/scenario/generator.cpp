#include "scenario/generator.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "bench_suite/extended_benchmarks.h"
#include "rng/rng.h"

namespace cmmfo::scenario {

namespace {

// Keep in sync with GeneratorParams::target_raw_size's default (the name
// grammar omits ":size=" exactly when the target is this value).
constexpr double kDefaultTargetRawSize = 1e4;

// Power-of-two trip counts keep unroll-factor lists divisor-rich.
constexpr int kTripMenu[] = {8, 16, 32, 64, 128, 256};
constexpr int kSizeMenu[] = {64, 128, 256, 512, 1024, 4096};

std::string loopName(int i) { return "L" + std::to_string(i); }
std::string arrayName(int i) { return "A" + std::to_string(i); }

hls::Kernel buildKernel(const GeneratorParams& p, rng::Rng& rng) {
  hls::Kernel k("scn" + std::to_string(p.seed));

  const int n_arrays =
      1 + static_cast<int>(rng.index(
              static_cast<std::size_t>(std::max(p.max_arrays, 1))));
  for (int a = 0; a < n_arrays; ++a)
    k.addArray(arrayName(a), kSizeMenu[rng.index(6)], 32);

  // Loop forest: chains with an occasional fork, depth-capped. Unique names
  // in creation order (the space parser resolves names first-match, so
  // uniqueness is what makes the spec text round-trip).
  const int n_top =
      1 + static_cast<int>(rng.index(
              static_cast<std::size_t>(std::max(p.max_top_loops, 1))));
  const int max_depth = std::max(p.max_depth, 1);
  int counter = 0;
  for (int t = 0; t < n_top; ++t) {
    const hls::LoopId top = k.addLoop(loopName(counter++), kTripMenu[rng.index(6)]);
    hls::LoopId cur = top;
    int depth = 1;
    while (depth < max_depth && rng.bernoulli(p.child_prob)) {
      cur = k.addLoop(loopName(counter++), kTripMenu[rng.index(6)], cur);
      ++depth;
    }
    // A fork: a second leaf body sharing the nest's outer loop.
    if (cur != top && rng.bernoulli(0.3))
      k.addLoop(loopName(counter++), kTripMenu[rng.index(6)], top);
  }

  // Bodies: innermost loops carry the compute and the array traffic; outer
  // loops only light bookkeeping.
  std::vector<hls::LoopId> innermost;
  for (std::size_t li = 0; li < k.numLoops(); ++li)
    if (k.isInnermost(static_cast<hls::LoopId>(li)))
      innermost.push_back(static_cast<hls::LoopId>(li));

  for (std::size_t li = 0; li < k.numLoops(); ++li) {
    const auto l = static_cast<hls::LoopId>(li);
    hls::Loop& loop = k.loop(l);
    if (!k.isInnermost(l)) {
      loop.body_ops[hls::OpKind::kAdd] = static_cast<int>(rng.index(3));
      loop.body_ops[hls::OpKind::kCmp] = static_cast<int>(rng.index(2));
      continue;
    }
    const int n_refs = 1 + static_cast<int>(rng.index(2));
    int loads = 0, stores = 0;
    for (int r = 0; r < n_refs; ++r) {
      hls::ArrayRef ref;
      ref.array = static_cast<hls::ArrayId>(rng.index(k.numArrays()));
      // The innermost induction variable is the unit-stride (minor) index;
      // an enclosing loop sometimes enters as the strided (major) index —
      // the A[i*N + j] shape Algorithm 1's cyclic/block rules key on.
      ref.index.push_back({l, hls::IndexRole::kMinor});
      if (loop.parent != hls::kNoLoop && rng.bernoulli(0.5))
        ref.index.push_back({loop.parent, hls::IndexRole::kMajor});
      ref.is_write = r == n_refs - 1 && rng.bernoulli(0.5);
      ref.count = 1 + static_cast<int>(rng.index(2));
      (ref.is_write ? stores : loads) += ref.count;
      loop.refs.push_back(std::move(ref));
    }
    loop.body_ops[hls::OpKind::kAdd] = 1 + static_cast<int>(rng.index(4));
    loop.body_ops[hls::OpKind::kMul] = static_cast<int>(rng.index(4));
    loop.body_ops[hls::OpKind::kCmp] = static_cast<int>(rng.index(2));
    loop.body_ops[hls::OpKind::kLogic] = static_cast<int>(rng.index(2));
    loop.body_ops[hls::OpKind::kLoad] = loads;
    loop.body_ops[hls::OpKind::kStore] = stores;
    if (rng.bernoulli(p.recurrence_prob)) {
      loop.loop_carried_dep = true;
      loop.dep_distance = 1 + static_cast<int>(rng.index(2));
    }
  }

  // Every array must be referenced somewhere (loopsIndexingArray-driven
  // factor lists and die crossings both assume live arrays).
  for (std::size_t a = 0; a < k.numArrays(); ++a) {
    if (!k.loopsIndexingArray(static_cast<hls::ArrayId>(a)).empty()) continue;
    const hls::LoopId l = innermost[rng.index(innermost.size())];
    hls::ArrayRef ref;
    ref.array = static_cast<hls::ArrayId>(a);
    ref.index.push_back({l, hls::IndexRole::kMinor});
    ref.count = 1;
    k.loop(l).refs.push_back(std::move(ref));
    k.loop(l).body_ops[hls::OpKind::kLoad] += 1;
  }
  return k;
}

hls::SpaceSpec buildSpec(const hls::Kernel& k, const GeneratorParams& p,
                         rng::Rng& rng) {
  hls::SpaceSpec spec;
  spec.loops.resize(k.numLoops());
  spec.arrays.resize(k.numArrays());

  for (std::size_t li = 0; li < k.numLoops(); ++li) {
    const auto l = static_cast<hls::LoopId>(li);
    hls::LoopSiteOptions& site = spec.loops[li];
    site.unroll_factors =
        hls::divisorFactors(k.loop(l).trip_count, std::max(p.max_factor, 1));
    if (k.isInnermost(l) && rng.bernoulli(p.pipeline_prob)) {
      site.allow_pipeline = true;
      site.pipeline_iis = {1, 2};
    }
    // When pipeline is off, pipeline_iis stays at the default {1}: the
    // parser cannot represent a non-default II list behind a missing
    // `pipeline` clause, and the spec must round-trip bitwise.
  }

  for (std::size_t ai = 0; ai < k.numArrays(); ++ai) {
    const auto a = static_cast<hls::ArrayId>(ai);
    hls::ArraySiteOptions& site = spec.arrays[ai];
    // Partition kinds are role-driven, not random: cyclic banks unit-stride
    // (minor) accesses, block banks strided (major) ones, so offering the
    // kind each indexing loop's role calls for guarantees every unroll in
    // the space has a compatible seed for Algorithm 1 to grow from. A
    // random menu can leave an array with only the wrong-role kind, which
    // silently strands its loops at unroll=1 in the pruned space.
    site.types = {hls::PartitionType::kNone};
    bool has_minor = false, has_major = false;
    for (hls::LoopId l : k.loopsIndexingArray(a)) {
      (k.roleOf(l, a) == hls::IndexRole::kMajor ? has_major : has_minor) =
          true;
    }
    if (has_minor) site.types.push_back(hls::PartitionType::kCyclic);
    if (has_major) site.types.push_back(hls::PartitionType::kBlock);
    if (k.array(a).size <= 64 && rng.bernoulli(0.3))
      site.types.push_back(hls::PartitionType::kComplete);
    // Factor menu = the indexing loops' unroll factors: every unroll the
    // space offers has a matching banking, which is what keeps the pruned
    // space's eps-regret against the raw front small (docs/scenarios.md).
    std::vector<int> fs;
    for (hls::LoopId l : k.loopsIndexingArray(a))
      for (int f : spec.loops[l].unroll_factors)
        if (f > 1 && std::find(fs.begin(), fs.end(), f) == fs.end())
          fs.push_back(f);
    std::sort(fs.begin(), fs.end());
    if (fs.empty()) fs.push_back(2);
    site.factors = std::move(fs);
  }
  return spec;
}

/// Deterministically remove one option at a time (largest list first, fixed
/// tie-break order) until the raw size is within 4x of the target.
void shrinkToward(hls::SpaceSpec& spec, double target) {
  while (spec.rawSize() > 4.0 * target) {
    std::size_t best_len = 1;
    std::vector<int>* best_list = nullptr;
    std::vector<hls::PartitionType>* best_types = nullptr;
    for (auto& l : spec.loops) {
      if (l.unroll_factors.size() > best_len) {
        best_len = l.unroll_factors.size();
        best_list = &l.unroll_factors;
        best_types = nullptr;
      }
      if (l.allow_pipeline && l.pipeline_iis.size() > best_len) {
        best_len = l.pipeline_iis.size();
        best_list = &l.pipeline_iis;
        best_types = nullptr;
      }
    }
    for (auto& a : spec.arrays) {
      if (a.factors.size() > best_len) {
        best_len = a.factors.size();
        best_list = &a.factors;
        best_types = nullptr;
      }
      if (a.types.size() > best_len) {
        best_len = a.types.size();
        best_list = nullptr;
        best_types = &a.types;
      }
    }
    if (best_list) {
      best_list->pop_back();  // drop the largest factor/II
    } else if (best_types) {
      best_types->pop_back();  // kNone sits first and always survives
    } else {
      // All lists are singletons; the last shavable richness is pipelining.
      bool dropped = false;
      for (auto it = spec.loops.rbegin(); it != spec.loops.rend(); ++it) {
        if (!it->allow_pipeline) continue;
        it->allow_pipeline = false;
        it->pipeline_iis = {1};
        dropped = true;
        break;
      }
      if (!dropped) break;  // structural floor reached
    }
  }
}

/// Deterministically add one option at a time (fixed priority ladder) until
/// the raw size is within 1/4 of the target or no move remains.
void growToward(const hls::Kernel& k, hls::SpaceSpec& spec, double target,
                int max_factor) {
  constexpr int kIiMenu[] = {1, 2, 3, 4, 6, 8};
  while (spec.rawSize() < 0.25 * target) {
    bool moved = false;
    // 1) Pipeline an innermost loop that does not offer it yet.
    for (std::size_t li = 0; li < spec.loops.size() && !moved; ++li) {
      if (spec.loops[li].allow_pipeline ||
          !k.isInnermost(static_cast<hls::LoopId>(li)))
        continue;
      spec.loops[li].allow_pipeline = true;
      spec.loops[li].pipeline_iis = {1, 2};
      moved = true;
    }
    // 2) Extend the shortest II list.
    if (!moved) {
      std::vector<int>* shortest = nullptr;
      for (auto& l : spec.loops)
        if (l.allow_pipeline && l.pipeline_iis.size() < std::size(kIiMenu) &&
            (!shortest || l.pipeline_iis.size() < shortest->size()))
          shortest = &l.pipeline_iis;
      if (shortest) {
        shortest->push_back(kIiMenu[shortest->size()]);
        moved = true;
      }
    }
    // 3) Extend the shortest partition-factor list (doubling ladder).
    if (!moved) {
      for (std::size_t ai = 0; ai < spec.arrays.size() && !moved; ++ai) {
        auto& site = spec.arrays[ai];
        const int next = site.factors.empty() ? 2 : 2 * site.factors.back();
        const int cap = std::min(std::max(max_factor, 2) * 4,
                                 k.array(static_cast<hls::ArrayId>(ai)).size);
        if (site.factors.size() < 6 && next <= cap) {
          site.factors.push_back(next);
          moved = true;
        }
      }
    }
    // 4) Offer the missing partition kinds.
    if (!moved) {
      for (auto& site : spec.arrays) {
        auto missing = [&](hls::PartitionType t) {
          return std::find(site.types.begin(), site.types.end(), t) ==
                 site.types.end();
        };
        if (missing(hls::PartitionType::kCyclic)) {
          site.types.push_back(hls::PartitionType::kCyclic);
          moved = true;
          break;
        }
        if (missing(hls::PartitionType::kBlock)) {
          site.types.push_back(hls::PartitionType::kBlock);
          moved = true;
          break;
        }
      }
    }
    if (!moved) break;  // richness ceiling for this kernel's structure
  }
}

sim::DieMap buildDieMap(const hls::Kernel& k, const GeneratorParams& p,
                        rng::Rng& rng) {
  sim::DieMap dm;
  if (p.num_dies <= 1) return dm;
  dm.num_dies = p.num_dies;

  // Whole nests live on one die (an HLS floorplanner would never split a
  // loop body): nest i -> die i mod D, arrays offset by one so even a
  // single-nest, single-array kernel crosses a boundary.
  dm.loop_die.assign(k.numLoops(), 0);
  const std::vector<hls::LoopId> tops = k.topLoops();
  for (std::size_t li = 0; li < k.numLoops(); ++li) {
    hls::LoopId root = static_cast<hls::LoopId>(li);
    while (k.loop(root).parent != hls::kNoLoop) root = k.loop(root).parent;
    const auto it = std::find(tops.begin(), tops.end(), root);
    dm.loop_die[li] =
        static_cast<int>((it - tops.begin()) % static_cast<std::size_t>(dm.num_dies));
  }
  dm.array_die.assign(k.numArrays(), 0);
  for (std::size_t a = 0; a < k.numArrays(); ++a)
    dm.array_die[a] =
        static_cast<int>((a + 1) % static_cast<std::size_t>(dm.num_dies));

  // Guarantee at least one crossing reference.
  bool crossing = false;
  for (std::size_t li = 0; li < k.numLoops() && !crossing; ++li)
    for (const hls::ArrayRef& ref : k.loop(static_cast<hls::LoopId>(li)).refs)
      if (dm.dieOfLoop(static_cast<hls::LoopId>(li)) !=
          dm.dieOfArray(ref.array)) {
        crossing = true;
        break;
      }
  if (!crossing) {
    for (std::size_t li = 0; li < k.numLoops() && !crossing; ++li) {
      const auto& refs = k.loop(static_cast<hls::LoopId>(li)).refs;
      if (refs.empty()) continue;
      dm.array_die[refs.front().array] =
          (dm.dieOfLoop(static_cast<hls::LoopId>(li)) + 1) % dm.num_dies;
      crossing = true;
    }
  }

  // Per-seed SLL budget (4k..16k bits per boundary): some scenarios route
  // comfortably, others hit the pool with aggressive unrolls.
  dm.sll_capacity_bits = 4000.0 * (1.0 + static_cast<double>(rng.index(4)));
  return dm;
}

std::uint64_t parseU64Token(const std::string& s, const std::string& name) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("bad scenario name '" + name + "': expected a "
                                "non-negative integer, got '" + s + "'");
  try {
    return std::stoull(s);
  } catch (...) {
    throw std::invalid_argument("bad scenario name '" + name +
                                "': integer out of range '" + s + "'");
  }
}

}  // namespace

Scenario generate(const GeneratorParams& p) {
  rng::Rng rng(0x5CE9A210F00DULL ^ (p.seed * 0x9E3779B97F4A7C15ULL));

  hls::Kernel kernel = buildKernel(p, rng);
  hls::SpaceSpec spec = buildSpec(kernel, p, rng);
  const double target = std::max(p.target_raw_size, 1.0);
  shrinkToward(spec, target);
  growToward(kernel, spec, target, p.max_factor);

  sim::SimParams sp;
  sp.divergence = 0.2 + 0.6 * rng.uniform();
  sim::DieMap dm = buildDieMap(kernel, p, rng);

  const std::string err = kernel.validate();
  if (!err.empty())
    throw std::logic_error("scenario generator produced an invalid kernel: " +
                           err);

  Scenario sc;
  sc.params = p;
  sc.name = scenarioName(p);
  std::string desc = "generated scenario seed=" + std::to_string(p.seed);
  if (p.num_dies > 1) desc += " dies=" + std::to_string(p.num_dies);
  sc.benchmark = std::make_shared<const bench_suite::Benchmark>(
      bench_suite::Benchmark{std::move(kernel), std::move(spec), sp,
                             std::move(desc), std::move(dm)});
  return sc;
}

std::string scenarioName(const GeneratorParams& p) {
  std::string n = "scenario:" + std::to_string(p.seed);
  if (p.num_dies > 1) n += ":dies=" + std::to_string(p.num_dies);
  if (p.target_raw_size != kDefaultTargetRawSize)
    n += ":size=" +
         std::to_string(static_cast<long long>(std::llround(p.target_raw_size)));
  return n;
}

bool isScenarioName(const std::string& name) {
  return name.rfind("scenario:", 0) == 0;
}

Scenario generateFromName(const std::string& name) {
  if (!isScenarioName(name))
    throw std::invalid_argument("not a scenario name: '" + name + "'");
  GeneratorParams p;
  std::vector<std::string> parts;
  {
    std::string rest = name.substr(9);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
      const std::size_t colon = rest.find(':', pos);
      parts.push_back(rest.substr(pos, colon - pos));
      if (colon == std::string::npos) break;
      pos = colon + 1;
    }
  }
  if (parts.empty() || parts[0].empty())
    throw std::invalid_argument("bad scenario name '" + name +
                                "': missing seed");
  p.seed = parseU64Token(parts[0], name);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& t = parts[i];
    if (t.rfind("dies=", 0) == 0) {
      const std::uint64_t d = parseU64Token(t.substr(5), name);
      if (d < 1 || d > 16)
        throw std::invalid_argument("bad scenario name '" + name +
                                    "': dies must be in [1, 16]");
      p.num_dies = static_cast<int>(d);
    } else if (t.rfind("size=", 0) == 0) {
      const std::uint64_t s = parseU64Token(t.substr(5), name);
      if (s < 1)
        throw std::invalid_argument("bad scenario name '" + name +
                                    "': size must be >= 1");
      p.target_raw_size = static_cast<double>(s);
    } else {
      throw std::invalid_argument("bad scenario name '" + name +
                                  "': unknown key '" + t + "'");
    }
  }
  return generate(p);
}

bench_suite::Benchmark resolveBenchmark(const std::string& name) {
  if (isScenarioName(name)) return *generateFromName(name).benchmark;
  return bench_suite::makeAnyBenchmark(name);
}

}  // namespace cmmfo::scenario
