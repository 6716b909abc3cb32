// cmmfo — command-line driver for the library.
//
//   cmmfo list [--seeds N] [--size S] [--dies D]
//       List available benchmarks (paper suite + extended) with design-space
//       statistics. With any of the flags, tabulate generated scenarios
//       instead: seeds 1..N (default 10) at raw size S on D dies.
//   cmmfo run --benchmark <name> [--method ours|fpl18|ann|bt|dac19|random]
//             [--iters N] [--repeats R] [--seed S] [--batch B] [--workers W]
//             [--async] [--budget X]
//       Run a DSE method against the simulated FPGA flow and report ADRS,
//       tool time and the learned Pareto set. --batch proposes B configs per
//       BO round (Kriging-believer q-PEIPV) and --workers runs them on a
//       simulated W-wide tool farm (BO methods only). --async drops the
//       round barrier: each worker pulls a fresh believer-conditioned
//       proposal the moment it frees (the window is the worker count).
//       --budget stops a BO run once X charged tool-seconds are spent.
//   cmmfo describe --benchmark <name>
//       Print the loop nest, array refs, die map and space-spec text.
//   cmmfo oracle --benchmark <name> [--eps E]
//       Enumerate the exhaustive ground truth, audit Algorithm 1 against the
//       raw space and print per-fidelity front gaps. Exits 1 on an audit
//       violation.
//   cmmfo prune --benchmark <name>
//       Print tree-pruning statistics and a sample of surviving configs.
//   cmmfo tcl --benchmark <name> [--config IDX]
//       Emit the Vivado HLS TCL run script for one configuration.
//
// <name> is a suite benchmark (see `cmmfo list`) or a generated scenario
// `scenario:<seed>[:dies=D][:size=S]`.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>

#include "bench_suite/extended_benchmarks.h"
#include "exp/harness.h"
#include "hls/pruner.h"
#include "hls/space_parser.h"
#include "hls/tcl_emitter.h"
#include "obs/obs.h"
#include "scenario/audit.h"
#include "scenario/generator.h"

using namespace cmmfo;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& def = "") const {
    const auto it = options.find(key);
    return it == options.end() ? def : it->second;
  }
  long getInt(const std::string& key, long def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : std::atol(it->second.c_str());
  }
  double getDouble(const std::string& key, double def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : std::atof(it->second.c_str());
  }
  bool has(const std::string& key) const { return options.count(key) != 0; }
};

Args parseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;  // stray value; already consumed
    key = key.substr(2);
    // Valueless switches (e.g. --resume) get "1"; key-value pairs consume
    // the next token.
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[key] = argv[i + 1];
      ++i;
    } else {
      args.options[key] = "1";
    }
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: cmmfo <list|run|describe|oracle|prune|tcl> "
               "[--benchmark NAME] [--method M] [--iters N] [--repeats R] "
               "[--seed S] [--batch B] [--workers W] [--async] [--budget X] "
               "[--eps E] [--config IDX]\n"
               "  NAME: a suite benchmark (see `cmmfo list`) or a generated "
               "scenario `scenario:<seed>[:dies=D][:size=S]`\n"
               "  scenario table (list): [--seeds N] [--size S] [--dies D]\n"
               "  fault tolerance (run): [--fault-rate P] [--hang-rate P] "
               "[--stall-rate P] [--persistent-rate P] [--timeout SECS] "
               "[--retries K]\n"
               "  checkpointing (run):   [--checkpoint FILE] [--resume] "
               "[--max-rounds R]\n"
               "  observability (run):   [--trace FILE.jsonl] "
               "[--chrome-trace FILE.json] [--metrics FILE.csv|.json]\n"
               "  diagnostics (run):     [--diag FILE.jsonl] "
               "(flight-recorder journal; render with cmmfo_report)\n"
               "  FILE may be '-' to write the dump to stdout "
               "(not --chrome-trace)\n");
  return 2;
}

std::vector<std::string> allNames() {
  auto names = bench_suite::benchmarkNames();
  for (const auto& n : bench_suite::extendedBenchmarkNames())
    names.push_back(n);
  return names;
}

int listScenarios(const Args& args) {
  const long n = args.getInt("seeds", 10);
  scenario::GeneratorParams base;
  base.target_raw_size = args.getDouble("size", base.target_raw_size);
  base.num_dies = static_cast<int>(args.getInt("dies", base.num_dies));

  std::printf("%-28s %6s %7s %10s %8s %7s\n", "name", "loops", "arrays",
              "raw", "pruned", "reduce");
  for (long s = 1; s <= n; ++s) {
    scenario::GeneratorParams p = base;
    p.seed = static_cast<std::uint64_t>(s);
    const scenario::Scenario sc = scenario::generate(p);
    hls::PruneStats stats;
    hls::prunedConfigs(sc.kernel(), sc.spec(), &stats);
    std::printf("%-28s %6zu %7zu %10.3g %8zu %6.0fx\n", sc.name.c_str(),
                sc.kernel().numLoops(), sc.kernel().numArrays(),
                stats.raw_size, stats.pruned_size, stats.reduction_factor());
  }
  return 0;
}

int cmdList(const Args& args) {
  if (args.has("seeds") || args.has("size") || args.has("dies"))
    return listScenarios(args);
  const auto paper = bench_suite::benchmarkNames();
  std::printf("%-14s %-8s %14s %10s %8s  %s\n", "benchmark", "suite",
              "raw space", "pruned", "pareto", "description");
  for (const auto& name : allNames()) {
    const exp::BenchmarkContext ctx(bench_suite::makeAnyBenchmark(name));
    const bool is_paper =
        std::find(paper.begin(), paper.end(), name) != paper.end();
    std::printf("%-14s %-8s %14.3g %10zu %8zu  %s\n", name.c_str(),
                is_paper ? "paper" : "extended",
                ctx.space().stats().raw_size, ctx.space().size(),
                ctx.groundTruth().paretoFront().size(),
                ctx.benchmark().description.c_str());
  }
  return 0;
}

std::unique_ptr<baselines::DseMethod> makeMethod(const std::string& method,
                                                 const core::OptimizerOptions&
                                                     bo,
                                                 int iters) {
  using baselines::BoMethod;
  using baselines::RegressionMethod;
  if (method == "ours") return std::make_unique<BoMethod>(BoMethod::ours(bo));
  if (method == "fpl18")
    return std::make_unique<BoMethod>(BoMethod::fpl18(bo));
  if (method == "ann")
    return std::make_unique<RegressionMethod>(RegressionMethod::ann());
  if (method == "bt")
    return std::make_unique<RegressionMethod>(RegressionMethod::bt());
  if (method == "dac19") return std::make_unique<baselines::Dac19Method>();
  if (method == "random")
    return std::make_unique<baselines::RandomMethod>(8 + iters);
  return nullptr;
}

int cmdRun(const Args& args, int argc, char** argv) {
  const std::string name = args.get("benchmark");
  if (name.empty()) return usage();
  const std::string method = args.get("method", "ours");
  const int iters = static_cast<int>(args.getInt("iters", 40));
  const int repeats = static_cast<int>(args.getInt("repeats", 1));
  const std::uint64_t seed = args.getInt("seed", 1);
  // Non-positive values fall back to the sequential regime, matching the
  // optimizer's own clamping, so the report shows what actually ran.
  const int batch = std::max(static_cast<int>(args.getInt("batch", 1)), 1);
  const int workers =
      std::max(static_cast<int>(args.getInt("workers", batch)), 1);

  // Fault-tolerance knobs (all off by default).
  sim::FaultParams faults;
  faults.transient_crash_prob = args.getDouble("fault-rate", 0.0);
  faults.hang_prob = args.getDouble("hang-rate", 0.0);
  faults.license_stall_prob = args.getDouble("stall-rate", 0.0);
  faults.persistent_failure_prob = args.getDouble("persistent-rate", 0.0);

  core::OptimizerOptions bo;
  bo.n_iter = iters;
  bo.batch_size = batch;
  bo.n_workers = workers;
  // --async switches to the event-driven pipeline: batch_size is ignored
  // and the speculation window is the worker count.
  bo.async = args.has("async");
  bo.retry.max_attempts =
      std::max(static_cast<int>(args.getInt("retries", 3)), 1);
  bo.retry.attempt_timeout_seconds = args.getDouble("timeout", 0.0);
  bo.checkpoint_path = args.get("checkpoint");
  bo.resume = args.has("resume");
  bo.max_rounds = static_cast<int>(args.getInt("max-rounds", 0));
  bo.max_charged_seconds = args.getDouble("budget", 0.0);

  const auto m = makeMethod(method, bo, iters);
  if (!m) {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }

  // Observability: flip the global switches before any run. The run itself
  // is bit-for-bit unchanged (pinned by tests); only dumps are added.
  const std::string trace_path = args.get("trace");
  const std::string chrome_path = args.get("chrome-trace");
  const std::string metrics_path = args.get("metrics");
  const std::string diag_path = args.get("diag");
  if (!trace_path.empty() || !chrome_path.empty())
    obs::tracer().setEnabled(true);
  if (!metrics_path.empty()) obs::metrics().setEnabled(true);

  // Run provenance, prepended to every dump this invocation writes.
  obs::RunMeta meta = obs::makeRunMeta();
  meta.tool = "cmmfo";
  meta.benchmark = name;
  meta.method = method;
  meta.seed = seed;
  meta.has_seed = true;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) meta.flags += ' ';
    meta.flags += argv[i];
  }

  exp::BenchmarkContext ctx(scenario::resolveBenchmark(name));
  ctx.sim().setFaultParams(faults);
  std::printf("%s: %zu configurations, %zu true Pareto points\n", name.c_str(),
              ctx.space().size(), ctx.groundTruth().paretoFront().size());

  const exp::MethodStats stats = exp::evaluateMethod(ctx, *m, repeats, seed);
  std::printf("%s: ADRS = %.4f", m->name().c_str(), stats.adrs_mean);
  if (repeats > 1) std::printf(" +- %.4f (%d repeats)", stats.adrs_std, repeats);
  std::printf("   charged tool time = %.1f h (%d tool runs)",
              stats.time_mean / 3600.0, stats.runs[0].tool_runs);
  if (bo.async)
    std::printf("   wall-clock = %.1f h (async, %d workers)\n",
                stats.wall_mean / 3600.0, workers);
  else
    std::printf("   wall-clock = %.1f h (batch %d, %d workers)\n",
                stats.wall_mean / 3600.0, batch, workers);

  // Flight recorder: armed only for the showcase run below (not the repeat
  // sweep), so the journal describes exactly one trajectory. Enabling it
  // does not perturb the run (pinned by the seed-77 golden test).
  if (!diag_path.empty()) {
    obs::recorder().setRunMeta(meta);
    obs::recorder().setAdrsScorer(
        [&ctx](const std::vector<std::size_t>& sel) { return ctx.adrsOf(sel); });
    obs::recorder().setEnabled(true);
  }

  // Learned front of the last repeat, at true post-impl values.
  const auto out = m->run(ctx.space(), ctx.sim(), seed);
  if (out.attempts > out.tool_runs || out.degraded_jobs > 0 ||
      out.persistent_failures > 0) {
    std::printf(
        "fault tolerance: %d attempts for %d tool runs "
        "(%d transient crashes, %d timeouts, %d persistent, %d degraded), "
        "%.1f h wasted retries, %.1f h backoff waits\n",
        out.attempts, out.tool_runs, out.transient_failures, out.timeouts,
        out.persistent_failures, out.degraded_jobs,
        out.wasted_seconds / 3600.0, out.backoff_seconds / 3600.0);
  }
  pareto::ParetoFront front;
  for (std::size_t i : out.selected)
    if (ctx.groundTruth().valid(i))
      front.insert(ctx.groundTruth().implObjectives(i), i);
  std::printf("\nlearned Pareto set (%zu points):\n", front.size());
  std::printf("%10s %12s %10s %8s\n", "power/W", "delay/us", "LUT util",
              "config");
  for (std::size_t i = 0; i < front.size(); ++i) {
    const auto& y = front.points()[i];
    std::printf("%10.3f %12.2f %10.4f %8zu\n", y[0], y[1], y[2],
                front.ids()[i]);
  }

  if (!diag_path.empty()) {
    obs::recorder().setEnabled(false);
    if (obs::recorder().writeJournal(diag_path))
      std::printf("\ndiag: %zu records -> %s\n",
                  obs::recorder().recordCount(), diag_path.c_str());
    else
      std::fprintf(stderr, "diag: cannot write %s\n", diag_path.c_str());
    std::fputs(obs::recorder().summaryText().c_str(), stdout);
    obs::recorder().setAdrsScorer({});
  }

  if (!trace_path.empty()) {
    if (obs::writeDump(obs::Dump::kTrace, trace_path, meta))
      std::printf("\ntrace: %zu events -> %s\n", obs::tracer().eventCount(),
                  trace_path.c_str());
    else
      std::fprintf(stderr, "trace: cannot write %s\n", trace_path.c_str());
  }
  if (!chrome_path.empty()) {
    if (obs::writeDump(obs::Dump::kChromeTrace, chrome_path, meta))
      std::printf("chrome trace: %s (open in chrome://tracing)\n",
                  chrome_path.c_str());
    else
      std::fprintf(stderr, "chrome trace: cannot write %s\n",
                   chrome_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (obs::writeDump(obs::Dump::kMetrics, metrics_path, meta))
      std::printf("metrics: %zu series -> %s\n",
                  obs::metrics().snapshot().size(), metrics_path.c_str());
    else
      std::fprintf(stderr, "metrics: cannot write %s\n", metrics_path.c_str());
  }
  return 0;
}

int cmdDescribe(const Args& args) {
  const std::string name = args.get("benchmark");
  if (name.empty()) return usage();
  const bench_suite::Benchmark bm = scenario::resolveBenchmark(name);
  const hls::Kernel& k = bm.kernel;
  std::printf("%s  (%s)\n\n", name.c_str(), bm.description.c_str());

  for (std::size_t li = 0; li < k.numLoops(); ++li) {
    const auto l = static_cast<hls::LoopId>(li);
    const hls::Loop& loop = k.loop(l);
    std::printf("loop %-4s trip=%-4d depth=%d%s%s\n", loop.name.c_str(),
                loop.trip_count, k.depth(l),
                k.isInnermost(l) ? " innermost" : "",
                loop.loop_carried_dep ? " recurrence" : "");
    for (const hls::ArrayRef& ref : loop.refs) {
      std::printf("  %s %s x%d  [", ref.is_write ? "store" : "load ",
                  k.array(ref.array).name.c_str(), ref.count);
      for (std::size_t i = 0; i < ref.index.size(); ++i) {
        if (i) std::printf(", ");
        std::printf("%s:%s", k.loop(ref.index[i].first).name.c_str(),
                    ref.index[i].second == hls::IndexRole::kMinor ? "minor"
                                                                  : "major");
      }
      std::printf("]\n");
    }
  }
  std::printf("\n");
  for (std::size_t ai = 0; ai < k.numArrays(); ++ai) {
    const hls::ArrayDecl& a = k.array(static_cast<hls::ArrayId>(ai));
    std::printf("array %-4s size=%-5d elem=%d bits\n", a.name.c_str(), a.size,
                a.elem_bits);
  }

  const sim::DieMap& dm = bm.die_map;
  if (dm.enabled()) {
    std::printf("\ndie map (%d dies, sll pool %.0f bits, crossing %.1f ns):\n",
                dm.num_dies, dm.sll_capacity_bits, dm.crossing_delay_ns);
    for (std::size_t li = 0; li < k.numLoops(); ++li)
      std::printf("  loop %-4s -> die %d\n",
                  k.loop(static_cast<hls::LoopId>(li)).name.c_str(),
                  dm.dieOfLoop(static_cast<hls::LoopId>(li)));
    for (std::size_t ai = 0; ai < k.numArrays(); ++ai)
      std::printf("  array %-4s -> die %d\n",
                  k.array(static_cast<hls::ArrayId>(ai)).name.c_str(),
                  dm.dieOfArray(static_cast<hls::ArrayId>(ai)));
  }

  std::printf("\nspace spec (raw size %.3g):\n%s", bm.spec.rawSize(),
              hls::formatSpaceSpec(k, bm.spec).c_str());
  return 0;
}

int cmdAudit(const Args& args) {
  const std::string name = args.get("benchmark");
  if (name.empty()) return usage();
  const double eps = args.getDouble("eps", 0.10);
  const auto ctx = exp::enumerableContext(scenario::resolveBenchmark(name));
  if (!ctx) {
    std::fprintf(stderr,
                 "pruned space too large for exhaustive enumeration "
                 "(cap %zu); pick a smaller :size=\n",
                 exp::kEnumCap);
    return 1;
  }
  const sim::GroundTruth& gt = ctx->groundTruth();
  std::printf("%s: pruned %zu configs, true front %zu points\n", name.c_str(),
              ctx->space().size(), gt.paretoFront().size());

  const scenario::PruningAudit audit =
      scenario::auditPruning(ctx->benchmark(), ctx->sim(), gt, eps);
  std::printf("\npruning audit (eps %.2f, raw %zu configs%s):\n", eps,
              audit.raw_enumerated, audit.raw_complete ? "" : ", TRUNCATED");
  std::printf("  compatible front: %zu points, %zu violation(s), "
              "max regret %.4f, mean %.4f\n",
              audit.compat_front_size, audit.violations, audit.max_regret,
              audit.mean_regret);
  std::printf("  full raw front:   %zu points, max regret %.4f, mean %.4f "
              "(heuristic cost, not gated)\n",
              audit.raw_front_size, audit.full_max_regret,
              audit.full_mean_regret);

  std::printf("\nfidelity gaps (front seen at stage vs true impl front):\n");
  const char* names[] = {"hls", "syn", "impl"};
  for (int f = 0; f < sim::kNumFidelities; ++f)
    std::printf("  %-4s %.4f\n", names[f],
                scenario::fidelityGap(gt, static_cast<sim::Fidelity>(f)));
  return audit.violations == 0 ? 0 : 1;
}

int cmdPrune(const Args& args) {
  const std::string name = args.get("benchmark");
  if (name.empty()) return usage();
  const auto bm = scenario::resolveBenchmark(name);
  const auto space = hls::DesignSpace::buildPruned(bm.kernel, bm.spec);
  std::printf("%s: raw %.4g -> pruned %zu (%.0fx), %zu features\n",
              name.c_str(), space.stats().raw_size, space.size(),
              space.stats().reduction_factor(), space.featureDim());
  for (std::size_t i = 0; i < space.size();
       i += std::max<std::size_t>(1, space.size() / 4)) {
    std::printf("--- config %zu ---\n", i);
    const std::string s = space.config(i).toString(bm.kernel);
    std::printf("%s", s.empty() ? "(all defaults)\n" : s.c_str());
  }
  return 0;
}

int cmdTcl(const Args& args) {
  const std::string name = args.get("benchmark");
  if (name.empty()) return usage();
  const auto bm = scenario::resolveBenchmark(name);
  const auto space = hls::DesignSpace::buildPruned(bm.kernel, bm.spec);
  const std::size_t idx = args.getInt("config", 0);
  if (idx >= space.size()) {
    std::fprintf(stderr, "config %zu out of range (space has %zu)\n", idx,
                 space.size());
    return 2;
  }
  hls::TclOptions topts;
  topts.top_function = bm.kernel.name();
  std::fputs(hls::emitRunScriptTcl(bm.kernel, space.config(idx), topts).c_str(),
             stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    if (args.command == "list") return cmdList(args);
    if (args.command == "run") return cmdRun(args, argc, argv);
    if (args.command == "describe") return cmdDescribe(args);
    if (args.command == "oracle") return cmdAudit(args);
    if (args.command == "prune") return cmdPrune(args);
    if (args.command == "tcl") return cmdTcl(args);
  } catch (const std::exception& e) {
    // An unknown benchmark, an unwritable journal or a strict --resume
    // mismatch ends the command.
    std::fprintf(stderr, "cmmfo: %s\n", e.what());
    return 1;
  }
  return usage();
}
