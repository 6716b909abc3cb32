// Property battery for the procedural scenario generator and its
// exhaustive-enumeration oracles (src/scenario/).
//
// The suites are prefixed Scenario* so CI's sanitizer smoke jobs can select
// them: the generator's validity/round-trip properties over many seeds, the
// oracle's pruning-soundness audit (Algorithm 1 never eps-discards a
// raw-front point its own premises accept), hand-computed ADRS and
// die-crossing references, fidelity blindness of the multi-die model, and
// bit-exact determinism of the full generate -> oracle -> optimize chain.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/methods.h"
#include "core/optimizer.h"
#include "exp/harness.h"
#include "hls/design_space.h"
#include "hls/encoding.h"
#include "hls/space_parser.h"
#include "pareto/dominance.h"
#include "scenario/audit.h"
#include "scenario/generator.h"
#include "server/campaign.h"
#include "sim/die.h"
#include "sim/tool.h"

namespace cmmfo {
namespace {

scenario::Scenario makeScenario(std::uint64_t seed, double size,
                                int dies = 1) {
  scenario::GeneratorParams p;
  p.seed = seed;
  p.target_raw_size = size;
  p.num_dies = dies;
  return scenario::generate(p);
}

// ---------------------------------------------------------------------------
// ScenarioGenerator: structural validity, round-trips, size targeting.
// ---------------------------------------------------------------------------

TEST(ScenarioGenerator, FiftySeedsProduceValidKernels) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const scenario::Scenario sc = makeScenario(seed, 300.0);
    EXPECT_EQ(sc.kernel().validate(), "") << "seed " << seed;
    EXPECT_GE(sc.kernel().numLoops(), 1u) << "seed " << seed;
    EXPECT_GE(sc.kernel().numArrays(), 1u) << "seed " << seed;
    // Every array is referenced somewhere (die crossings and factor menus
    // both assume live arrays).
    for (std::size_t a = 0; a < sc.kernel().numArrays(); ++a)
      EXPECT_FALSE(
          sc.kernel().loopsIndexingArray(static_cast<hls::ArrayId>(a)).empty())
          << "seed " << seed << " array " << a;
  }
}

TEST(ScenarioGenerator, FiftySeedsSpecRoundTripsBitwise) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const scenario::Scenario sc = makeScenario(seed, 300.0);
    const std::string text = hls::formatSpaceSpec(sc.kernel(), sc.spec());
    const auto parsed = hls::parseSpaceSpec(sc.kernel(), text);
    ASSERT_TRUE(std::holds_alternative<hls::SpaceSpec>(parsed))
        << "seed " << seed << ": "
        << std::get<hls::ParseError>(parsed).message;
    // SpaceSpec::operator== is field-exact, so this is a bitwise claim.
    EXPECT_TRUE(std::get<hls::SpaceSpec>(parsed) == sc.spec())
        << "seed " << seed;
  }
}

TEST(ScenarioGenerator, FiftySeedsEncodeFinitelyAndDeterministically) {
  // The encoder min-max normalizes by the spec's option menus, so sites can
  // land slightly outside [0, 1] for values the menus don't list (ii = 1 on
  // an unpipelined config, backtracking-derived partition factors) — the GP
  // does not care. What generated spaces must guarantee: a stable feature
  // dimension, finite values, and bit-identical re-encoding.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const scenario::Scenario sc = makeScenario(seed, 300.0);
    const hls::DesignSpace space =
        hls::DesignSpace::buildPruned(sc.kernel(), sc.spec());
    ASSERT_GE(space.size(), 1u) << "seed " << seed;
    const hls::Encoder enc(sc.kernel(), sc.spec());
    ASSERT_GT(enc.dim(), 0u) << "seed " << seed;
    for (std::size_t i = 0; i < std::min<std::size_t>(space.size(), 8); ++i) {
      const std::vector<double> x = enc.encode(space.config(i));
      ASSERT_EQ(x.size(), enc.dim());
      for (double v : x) EXPECT_TRUE(std::isfinite(v)) << "seed " << seed;
      // Deterministic: encoding the same config twice is bit-identical.
      EXPECT_EQ(enc.encode(space.config(i)), x);
    }
  }
}

TEST(ScenarioGenerator, SizeTargetingShrinksAndOrdersSpaces) {
  // shrinkToward guarantees the 4x upper band whenever the structural floor
  // allows; the lower band is best-effort (tiny kernels cannot grow to 1e6),
  // so the hard property on that side is monotonicity: a larger target never
  // yields a smaller space for the same seed.
  bool any_growth = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    double prev = 0.0;
    for (const double target : {1e2, 1e3, 1e4}) {
      const scenario::Scenario sc = makeScenario(seed, target);
      const double raw = sc.spec().rawSize();
      EXPECT_GE(raw, 1.0) << "seed " << seed << " target " << target;
      EXPECT_LE(raw, 4.0 * target) << "seed " << seed << " target " << target;
      EXPECT_GE(raw, prev) << "seed " << seed << " target " << target;
      if (raw > prev && prev > 0.0) any_growth = true;
      prev = raw;
    }
  }
  EXPECT_TRUE(any_growth) << "targeting had no effect on any seed";
}

TEST(ScenarioGenerator, NameRoundTrip) {
  scenario::GeneratorParams p;
  p.seed = 9;
  p.num_dies = 3;
  p.target_raw_size = 777.0;
  const std::string name = scenario::scenarioName(p);
  EXPECT_EQ(name, "scenario:9:dies=3:size=777");
  const scenario::Scenario sc = scenario::generateFromName(name);
  EXPECT_TRUE(sc.params == p);
  EXPECT_EQ(sc.name, name);

  // Defaults are omitted from the name and restored by the parser.
  scenario::GeneratorParams q;
  q.seed = 4;
  EXPECT_EQ(scenario::scenarioName(q), "scenario:4");
  EXPECT_TRUE(scenario::generateFromName("scenario:4").params == q);
}

TEST(ScenarioGenerator, MalformedNamesThrow) {
  EXPECT_FALSE(scenario::isScenarioName("atax"));
  EXPECT_TRUE(scenario::isScenarioName("scenario:1"));
  EXPECT_THROW(scenario::generateFromName("atax"), std::invalid_argument);
  EXPECT_THROW(scenario::generateFromName("scenario:"), std::invalid_argument);
  EXPECT_THROW(scenario::generateFromName("scenario:abc"),
               std::invalid_argument);
  EXPECT_THROW(scenario::generateFromName("scenario:1:dies=0"),
               std::invalid_argument);
  EXPECT_THROW(scenario::generateFromName("scenario:1:dies=17"),
               std::invalid_argument);
  EXPECT_THROW(scenario::generateFromName("scenario:1:size=0"),
               std::invalid_argument);
  EXPECT_THROW(scenario::generateFromName("scenario:1:bogus=2"),
               std::invalid_argument);
}

TEST(ScenarioGenerator, DieCountDoesNotPerturbKernelOrSpace) {
  // The die map draws last, so the kernel, spec and sim params of
  // scenario:S and scenario:S:dies=D are identical — multi-die cells in the
  // matrix isolate the floorplan's effect, nothing else.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const scenario::Scenario one = makeScenario(seed, 300.0, 1);
    const scenario::Scenario two = makeScenario(seed, 300.0, 2);
    EXPECT_TRUE(one.spec() == two.spec()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(one.benchmark->sim_params.divergence,
                     two.benchmark->sim_params.divergence)
        << "seed " << seed;
    const hls::DesignSpace s1 =
        hls::DesignSpace::buildPruned(one.kernel(), one.spec());
    const hls::DesignSpace s2 =
        hls::DesignSpace::buildPruned(two.kernel(), two.spec());
    ASSERT_EQ(s1.size(), s2.size()) << "seed " << seed;
    for (std::size_t i = 0; i < s1.size(); ++i)
      EXPECT_TRUE(s1.config(i) == s2.config(i)) << "seed " << seed;
    EXPECT_FALSE(one.benchmark->die_map.enabled());
    EXPECT_TRUE(two.benchmark->die_map.enabled());
  }
}

// ---------------------------------------------------------------------------
// Exhaustive ground truth: pruning soundness, ADRS references, caps.
// ---------------------------------------------------------------------------

TEST(ScenarioOracle, PruningNeverEpsDiscardsACompatibleFrontPoint) {
  // The core Algorithm 1 property over 50 generated spaces: every raw
  // Pareto point the pruner's own enumeration premises accept must be
  // within eps (normalized worst-objective) of some pruned config. 0.10
  // sits above the simulator's cross-config noise envelope (~0.08 measured)
  // and far below genuine enumeration bugs (0.2-0.8 measured while live).
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const scenario::Scenario sc = makeScenario(seed, 300.0);
    const auto ctx = exp::enumerableContext(*sc.benchmark);
    ASSERT_NE(ctx, nullptr) << "seed " << seed;
    const scenario::PruningAudit audit = scenario::auditPruning(
        ctx->benchmark(), ctx->sim(), ctx->groundTruth(), 0.10);
    EXPECT_TRUE(audit.raw_complete) << "seed " << seed;
    EXPECT_EQ(audit.violations, 0u)
        << "seed " << seed << " max_regret " << audit.max_regret;
    // The full front's regret (heuristic cost) is reported, never gated —
    // but it must dominate the compatible front's by construction.
    EXPECT_GE(audit.full_max_regret, audit.max_regret) << "seed " << seed;
  }
}

TEST(ScenarioOracle, AdrsMatchesHandComputedReference) {
  // Re-derive oracle ADRS independently: normalize by the valid impl
  // ranges, Pareto-filter the selection, average over true-front points the
  // Euclidean distance to the nearest selected point. Must agree to 1e-12.
  const scenario::Scenario sc = makeScenario(3, 300.0);
  const auto ctx = exp::enumerableContext(*sc.benchmark);
  ASSERT_NE(ctx, nullptr);
  const sim::GroundTruth& gt = ctx->groundTruth();

  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < gt.size(); i += 2) selected.push_back(i);
  const double got = ctx->adrsOf(selected);

  std::vector<double> lo(sim::kNumObjectives, 1e300);
  std::vector<double> hi(sim::kNumObjectives, -1e300);
  for (std::size_t i = 0; i < gt.size(); ++i) {
    if (!gt.valid(i)) continue;
    const pareto::Point y = gt.implObjectives(i);
    for (int m = 0; m < sim::kNumObjectives; ++m) {
      lo[m] = std::min(lo[m], y[m]);
      hi[m] = std::max(hi[m], y[m]);
    }
  }
  const auto norm = [&](const pareto::Point& p) {
    pareto::Point q(p.size());
    for (std::size_t m = 0; m < p.size(); ++m)
      q[m] = (p[m] - lo[m]) / std::max(hi[m] - lo[m], 1e-12);
    return q;
  };
  std::vector<pareto::Point> learned;
  for (std::size_t i : selected)
    if (gt.valid(i)) learned.push_back(norm(gt.implObjectives(i)));
  learned = pareto::paretoFilter(learned);
  ASSERT_FALSE(learned.empty());
  double sum = 0.0;
  std::size_t n = 0;
  for (const pareto::Point& ref : gt.paretoFront()) {
    const pareto::Point r = norm(ref);
    double best = 1e300;
    for (const pareto::Point& l : learned) {
      double d2 = 0.0;
      for (std::size_t m = 0; m < r.size(); ++m)
        d2 += (l[m] - r[m]) * (l[m] - r[m]);
      best = std::min(best, std::sqrt(d2));
    }
    sum += best;
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_NEAR(got, sum / static_cast<double>(n), 1e-12);
}

TEST(ScenarioOracle, FullSelectionHasZeroAdrs) {
  for (std::uint64_t seed : {1ull, 7ull, 19ull}) {
    const scenario::Scenario sc = makeScenario(seed, 300.0);
    const auto ctx = exp::enumerableContext(*sc.benchmark);
    ASSERT_NE(ctx, nullptr) << "seed " << seed;
    std::vector<std::size_t> all(ctx->groundTruth().size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    EXPECT_NEAR(ctx->adrsOf(all), 0.0, 1e-12) << "seed " << seed;
    // Selecting exactly the true-front indices is equally perfect.
    EXPECT_NEAR(ctx->adrsOf(ctx->groundTruth().paretoIndices()), 0.0,
                1e-12)
        << "seed " << seed;
  }
}

TEST(ScenarioOracle, EmptySelectionScoresWorstCorner) {
  const scenario::Scenario sc = makeScenario(3, 300.0);
  const auto ctx = exp::enumerableContext(*sc.benchmark);
  ASSERT_NE(ctx, nullptr);
  // No valid selection: the learned front degenerates to the worst corner
  // (1,1,...,1) in normalized space, so the score is large but finite.
  const double adrs = ctx->adrsOf({});
  EXPECT_GT(adrs, 0.0);
  EXPECT_LT(adrs, std::sqrt(static_cast<double>(sim::kNumObjectives)) + 1e-9);
}

TEST(ScenarioOracle, RefusesSpacesOverTheEnumerationCap) {
  // Any real scenario exceeds a cap of 2.
  EXPECT_EQ(exp::enumerableContext(*makeScenario(1, 300.0).benchmark, 2),
            nullptr);
  // The default cap accepts the CI-grid sizes.
  EXPECT_NE(exp::enumerableContext(*makeScenario(1, 300.0).benchmark), nullptr);
}

TEST(ScenarioOracle, FidelityGapIsZeroAtImplByConstruction) {
  const scenario::Scenario sc = makeScenario(5, 300.0, 2);
  const auto ctx = exp::enumerableContext(*sc.benchmark);
  ASSERT_NE(ctx, nullptr);
  EXPECT_NEAR(scenario::fidelityGap(ctx->groundTruth(), sim::Fidelity::kImpl),
              0.0, 1e-12);
  EXPECT_GE(scenario::fidelityGap(ctx->groundTruth(), sim::Fidelity::kHls),
            0.0);
}

// ---------------------------------------------------------------------------
// ScenarioDie: the multi-die extension's fidelity contract.
// ---------------------------------------------------------------------------

void expectReportsBitIdentical(const sim::Report& a, const sim::Report& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
  EXPECT_DOUBLE_EQ(a.delay_us, b.delay_us);
  EXPECT_DOUBLE_EQ(a.lut_util, b.lut_util);
  EXPECT_DOUBLE_EQ(a.latency_cycles, b.latency_cycles);
  EXPECT_DOUBLE_EQ(a.clock_ns, b.clock_ns);
  EXPECT_DOUBLE_EQ(a.tool_seconds, b.tool_seconds);
}

TEST(ScenarioDie, LowFidelitiesAreDieBlind) {
  // FADO-style failure mode: HLS and synthesis never see the floorplan, so
  // their reports are bit-identical with and without the die map; only the
  // impl stage diverges. `aware` is the standard simulator every context
  // and campaign builds, so this also checks that it installs the die map.
  const scenario::Scenario sc = makeScenario(12, 300.0, 2);
  sim::FpgaToolSim blind(sc.kernel(), sim::DeviceModel::virtex7Vc707(),
                         sc.benchmark->sim_params, 42);
  const auto aware = bench_suite::makeToolSim(*sc.benchmark, 42);

  const hls::DesignSpace space =
      hls::DesignSpace::buildPruned(sc.kernel(), sc.spec());
  bool impl_diverged = false;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const hls::DirectiveConfig& cfg = space.config(i);
    expectReportsBitIdentical(blind.run(cfg, sim::Fidelity::kHls),
                              aware->run(cfg, sim::Fidelity::kHls));
    expectReportsBitIdentical(blind.run(cfg, sim::Fidelity::kSyn),
                              aware->run(cfg, sim::Fidelity::kSyn));
    const sim::Report bi = blind.run(cfg, sim::Fidelity::kImpl);
    const sim::Report ai = aware->run(cfg, sim::Fidelity::kImpl);
    if (bi.valid != ai.valid || bi.clock_ns != ai.clock_ns ||
        bi.power_w != ai.power_w)
      impl_diverged = true;
  }
  EXPECT_TRUE(impl_diverged)
      << "a 2-die map with a guaranteed crossing must perturb impl reports";
}

TEST(ScenarioDie, SingleDieMapIsAStrictNoOp) {
  const scenario::Scenario sc = makeScenario(12, 300.0, 1);
  sim::FpgaToolSim plain(sc.kernel(), sim::DeviceModel::virtex7Vc707(),
                         sc.benchmark->sim_params, 42);
  sim::FpgaToolSim mapped(sc.kernel(), sim::DeviceModel::virtex7Vc707(),
                          sc.benchmark->sim_params, 42);
  sim::DieMap noop;  // num_dies = 1 with populated placement vectors
  noop.loop_die.assign(sc.kernel().numLoops(), 0);
  noop.array_die.assign(sc.kernel().numArrays(), 0);
  mapped.setDieMap(noop);

  const hls::DesignSpace space =
      hls::DesignSpace::buildPruned(sc.kernel(), sc.spec());
  for (std::size_t i = 0; i < space.size(); ++i)
    for (int f = 0; f < sim::kNumFidelities; ++f)
      expectReportsBitIdentical(
          plain.run(space.config(i), static_cast<sim::Fidelity>(f)),
          mapped.run(space.config(i), static_cast<sim::Fidelity>(f)));
}

TEST(ScenarioDie, CrossingsMatchHandComputedReference) {
  // One loop on die 0 reading A (32-bit, x2 per iter) on die 2 and writing
  // B (32-bit, x1) on die 0; unroll 4 replicates the crossing lanes.
  hls::Kernel k("xdie");
  const hls::ArrayId a = k.addArray("A", 64, 32);
  const hls::ArrayId b = k.addArray("B", 64, 32);
  const hls::LoopId l = k.addLoop("L", 16);
  hls::ArrayRef ra;
  ra.array = a;
  ra.index.push_back({l, hls::IndexRole::kMinor});
  ra.count = 2;
  k.loop(l).refs.push_back(ra);
  hls::ArrayRef rb;
  rb.array = b;
  rb.index.push_back({l, hls::IndexRole::kMinor});
  rb.is_write = true;
  rb.count = 1;
  k.loop(l).refs.push_back(rb);
  k.loop(l).body_ops[hls::OpKind::kLoad] = 2;
  k.loop(l).body_ops[hls::OpKind::kStore] = 1;
  ASSERT_EQ(k.validate(), "");

  sim::DieMap dm;
  dm.num_dies = 3;
  dm.loop_die = {0};
  dm.array_die = {2, 0};
  dm.sll_capacity_bits = 500.0;

  hls::DirectiveConfig cfg;
  cfg.loops.resize(1);
  cfg.arrays.resize(2);
  cfg.loops[0].unroll = 4;

  const sim::DieCrossing dx = sim::estimateDieCrossings(k, cfg, dm);
  // A crosses 2 dies: 32 bits x 2 accesses x 4 lanes x 2 hops = 512 bits.
  // B is local (hop 0) and contributes nothing.
  EXPECT_EQ(dx.max_hop, 2);
  EXPECT_DOUBLE_EQ(dx.sll_bits, 512.0);
  // Two boundaries of 500 bits each -> util = 512 / 1000.
  EXPECT_DOUBLE_EQ(dx.sll_util, 0.512);
  EXPECT_TRUE(dx.feasible);

  // Shrinking the pool below the demand flips feasibility — crisply, no
  // noise involved.
  dm.sll_capacity_bits = 200.0;
  const sim::DieCrossing tight = sim::estimateDieCrossings(k, cfg, dm);
  EXPECT_DOUBLE_EQ(tight.sll_bits, 512.0);
  EXPECT_FALSE(tight.feasible);

  // Disabled map: all zeros regardless of placement vectors.
  const sim::DieCrossing off =
      sim::estimateDieCrossings(k, cfg, sim::DieMap{});
  EXPECT_EQ(off.max_hop, 0);
  EXPECT_DOUBLE_EQ(off.sll_bits, 0.0);
  EXPECT_TRUE(off.feasible);
}

TEST(ScenarioDie, MultiDieScenarioHasMeasurableFidelityGap) {
  // scenario:12:dies=2:size=300 is a matrix cell whose die-blind hls front
  // provably mis-ranks the true impl front.
  const auto ctx =
      exp::enumerableContext(*makeScenario(12, 300.0, 2).benchmark);
  ASSERT_NE(ctx, nullptr);
  EXPECT_GT(scenario::fidelityGap(ctx->groundTruth(), sim::Fidelity::kHls),
            1e-4);
}

// ---------------------------------------------------------------------------
// ScenarioDeterminism: same seed => bit-identical everything.
// ---------------------------------------------------------------------------

TEST(ScenarioDeterminism, RegeneratedScenarioIsBitIdentical) {
  const scenario::Scenario a = makeScenario(7, 300.0, 2);
  const scenario::Scenario b = makeScenario(7, 300.0, 2);
  EXPECT_TRUE(a.spec() == b.spec());
  EXPECT_TRUE(a.benchmark->die_map == b.benchmark->die_map);
  EXPECT_DOUBLE_EQ(a.benchmark->sim_params.divergence,
                   b.benchmark->sim_params.divergence);
  EXPECT_EQ(hls::formatSpaceSpec(a.kernel(), a.spec()),
            hls::formatSpaceSpec(b.kernel(), b.spec()));
  const hls::DesignSpace sa = hls::DesignSpace::buildPruned(a.kernel(), a.spec());
  const hls::DesignSpace sb = hls::DesignSpace::buildPruned(b.kernel(), b.spec());
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_TRUE(sa.config(i) == sb.config(i));
    EXPECT_EQ(sa.config(i).hash(), sb.config(i).hash());
  }
}

TEST(ScenarioDeterminism, OptimizerTrajectoryIsReproducible) {
  // Two fully independent generate -> oracle -> optimize chains with the
  // pinned seed 77 must agree on every proposal and every charged second.
  baselines::DseOutcome runs[2];
  for (int r = 0; r < 2; ++r) {
    const auto ctx =
        exp::enumerableContext(*makeScenario(7, 300.0, 2).benchmark);
    ASSERT_NE(ctx, nullptr);
    core::OptimizerOptions opts;
    opts.n_iter = 6;
    opts.batch_size = 2;
    opts.n_workers = 2;
    opts.surrogate.mtgp.mle_restarts = 0;
    opts.surrogate.gp.mle_restarts = 0;
    runs[r] =
        baselines::BoMethod::ours(opts).run(ctx->space(), ctx->sim(), 77);
  }
  ASSERT_EQ(runs[0].selected.size(), runs[1].selected.size());
  for (std::size_t i = 0; i < runs[0].selected.size(); ++i)
    EXPECT_EQ(runs[0].selected[i], runs[1].selected[i]) << "at " << i;
  EXPECT_EQ(runs[0].tool_runs, runs[1].tool_runs);
  EXPECT_DOUBLE_EQ(runs[0].tool_seconds, runs[1].tool_seconds);
  EXPECT_DOUBLE_EQ(runs[0].wall_seconds, runs[1].wall_seconds);
}

TEST(ScenarioDeterminism, PinnedSeedGolden) {
  // Pinned golden for the full chain (generator draws, pruner, simulator
  // noise, optimizer trajectory). A change here means the scenario stream
  // changed for EVERY consumer — matrix cells, the scenario_matrix.json
  // that CI uploads, server campaign names — and must be deliberate.
  const scenario::Scenario sc = makeScenario(7, 300.0);
  EXPECT_EQ(sc.name, "scenario:7:size=300");
  EXPECT_DOUBLE_EQ(sc.spec().rawSize(), 1008.0);
  const auto ctx = exp::enumerableContext(*sc.benchmark);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->space().size(), 12u);
  EXPECT_EQ(ctx->groundTruth().paretoFront().size(), 5u);

  core::OptimizerOptions opts;
  opts.n_iter = 6;
  opts.batch_size = 2;
  opts.n_workers = 2;
  opts.surrogate.mtgp.mle_restarts = 0;
  opts.surrogate.gp.mle_restarts = 0;
  const baselines::DseOutcome out =
      baselines::BoMethod::ours(opts).run(ctx->space(), ctx->sim(), 77);
  const std::vector<std::size_t> golden_selected = {11, 4, 10, 3, 8, 6,
                                                    1,  5, 0,  2, 9, 7};
  EXPECT_EQ(out.selected, golden_selected);
  EXPECT_DOUBLE_EQ(out.tool_seconds, 4374.444238023515);
}

// ---------------------------------------------------------------------------
// ScenarioLifetime: the server's kernel-lifetime pattern over generated
// benchmarks (ASan hunts dangling kernel pointers here).
// ---------------------------------------------------------------------------

TEST(ScenarioLifetime, ServerResolvesScenarioNames) {
  const bench_suite::Benchmark bm =
      scenario::resolveBenchmark("scenario:3:size=300");
  EXPECT_EQ(bm.kernel.validate(), "");

  // The simulator holds a raw pointer into bm.kernel: run it after every
  // other handle to the scenario is gone, so ASan sees any dangling use.
  const auto sim = bench_suite::makeToolSim(bm, 42);
  const auto space = server::makeSpaceFor("scenario:3:size=300");
  ASSERT_NE(space, nullptr);
  ASSERT_GE(space->size(), 1u);
  const sim::Report r = sim->run(space->config(0), sim::Fidelity::kImpl);
  EXPECT_GT(r.tool_seconds, 0.0);
}

TEST(ScenarioLifetime, SimulatorOutlivesEveryOtherHandle) {
  // The kernel-lifetime pattern: the simulator's raw kernel pointer is only
  // valid while something owns the benchmark. Keep exactly that one copy
  // alive, let every other scenario handle (the generateFromName temporary
  // inside the resolver, the design space) die, then run — ASan flags any
  // dangling kernel access.
  std::optional<bench_suite::Benchmark> keeper;
  std::unique_ptr<sim::FpgaToolSim> sim;
  hls::DirectiveConfig cfg;
  {
    keeper.emplace(scenario::resolveBenchmark("scenario:5:dies=2:size=300"));
    sim = bench_suite::makeToolSim(*keeper, 7);
    cfg = hls::DesignSpace::buildPruned(keeper->kernel, keeper->spec).config(0);
  }
  const sim::Report r = sim->run(cfg, sim::Fidelity::kImpl);
  EXPECT_GT(r.tool_seconds, 0.0);
}

TEST(ScenarioLifetime, ServerRejectsMalformedScenarioNames) {
  EXPECT_THROW(scenario::resolveBenchmark("scenario:nope"),
               std::invalid_argument);
  EXPECT_THROW(server::makeSpaceFor("scenario:1:dies=99"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ScenarioBudget: the charged-seconds stop the matrix relies on.
// ---------------------------------------------------------------------------

// FpgaToolSim is neither copyable nor movable (atomic charge accumulator),
// so each optimizer run below gets a fresh heap simulator built exactly
// like the context's (same device, params and seed — bit-identical reports).
std::unique_ptr<sim::FpgaToolSim> freshSim(const scenario::Scenario& sc) {
  return bench_suite::makeToolSim(*sc.benchmark, 42);
}

TEST(ScenarioBudget, ChargedSecondsBudgetStopsTheRun) {
  const scenario::Scenario sc = makeScenario(7, 300.0);
  const auto ctx = exp::enumerableContext(*sc.benchmark);
  ASSERT_NE(ctx, nullptr);

  core::OptimizerOptions opts;
  opts.n_iter = 8;
  opts.surrogate.mtgp.mle_restarts = 0;
  opts.surrogate.gp.mle_restarts = 0;

  core::OptimizerOptions tight = opts;
  tight.max_charged_seconds = 1.0;  // initialization alone exceeds this
  const auto sim_a = freshSim(sc);
  core::CorrelatedMfMoboOptimizer budgeted(ctx->space(), *sim_a, tight);
  const core::OptimizeResult r_tight = budgeted.run();

  const auto sim_b = freshSim(sc);
  core::CorrelatedMfMoboOptimizer free_run(ctx->space(), *sim_b, opts);
  const core::OptimizeResult r_free = free_run.run();

  EXPECT_LT(r_tight.rounds_run, r_free.rounds_run);
  EXPECT_GT(sim_b->totalToolSeconds(), sim_a->totalToolSeconds());
}

TEST(ScenarioBudget, BudgetIsPartOfTheCheckpointFingerprint) {
  // A journal written under one charged-seconds budget must not resume a
  // campaign configured with another: the budget shapes the trajectory, so
  // the fingerprint has to cover it. (Budget 0 keeps the legacy
  // fingerprint, so old journals still resume — covered by the runtime
  // suite's goldens staying green.)
  const scenario::Scenario sc = makeScenario(7, 300.0);
  const auto ctx = exp::enumerableContext(*sc.benchmark);
  ASSERT_NE(ctx, nullptr);
  const std::string path = testing::TempDir() + "/scenario_budget_fp.journal";
  std::remove(path.c_str());

  core::OptimizerOptions opts;
  opts.n_iter = 3;
  opts.surrogate.mtgp.mle_restarts = 0;
  opts.surrogate.gp.mle_restarts = 0;
  opts.checkpoint_path = path;
  opts.max_charged_seconds = 1e9;  // non-binding but fingerprinted

  const auto sim_a = freshSim(sc);
  core::CorrelatedMfMoboOptimizer first(ctx->space(), *sim_a, opts);
  (void)first.run();

  core::OptimizerOptions same = opts;
  same.resume = true;
  const auto sim_b = freshSim(sc);
  core::CorrelatedMfMoboOptimizer resumed(ctx->space(), *sim_b, same);
  EXPECT_TRUE(resumed.run().resumed);

  core::OptimizerOptions other = opts;
  other.resume = true;
  other.max_charged_seconds = 5e8;  // different budget, same everything else
  {
    // Strict resume refuses the foreign journal outright.
    const auto sim_c = freshSim(sc);
    core::CorrelatedMfMoboOptimizer strict(ctx->space(), *sim_c, other);
    EXPECT_THROW(strict.run(), std::runtime_error);
  }
  {
    // The daemon's lenient regime quarantines it and starts cold instead.
    other.resume_lenient = true;
    const auto sim_d = freshSim(sc);
    core::CorrelatedMfMoboOptimizer lenient(ctx->space(), *sim_d, other);
    EXPECT_FALSE(lenient.run().resumed);
  }
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

}  // namespace
}  // namespace cmmfo
