// cmmfo_scenarios — driver for the procedural scenario generator.
//
//   cmmfo_scenarios list [--seeds N] [--size S] [--dies D]
//       Generate N seeds (default 10) and tabulate kernel shape and
//       design-space statistics for each.
//   cmmfo_scenarios describe --scenario NAME
//       Print one scenario in full: loop nest, array refs, die map, and the
//       space-spec text (the round-trippable YAML-equivalent form).
//   cmmfo_scenarios oracle --scenario NAME [--eps E]
//       Exhaustively enumerate the scenario's ground truth, audit Algorithm 1
//       against the raw space, and print per-fidelity front gaps.
//   cmmfo_scenarios run --scenario NAME [--iters N] [--seed S] [--budget X]
//       Run the correlated MF-MOBO optimizer on the scenario and score it
//       against the oracle (true-front ADRS, charged seconds).
//
// Scenario names follow scenario:<seed>[:dies=D][:size=S], the same grammar
// the server and cmmfo CLI accept.

#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "baselines/methods.h"
#include "hls/pruner.h"
#include "hls/space_parser.h"
#include "scenario/generator.h"
#include "scenario/oracle.h"

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
};

Args parseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
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
               "usage: cmmfo_scenarios <list|describe|oracle|run> "
               "[--scenario scenario:<seed>[:dies=D][:size=S]] [--seeds N] "
               "[--size S] [--dies D] [--eps E] [--iters N] [--seed S] "
               "[--budget X]\n");
  return 2;
}

scenario::Scenario scenarioFromArgs(const Args& args) {
  const std::string name = args.get("scenario");
  if (name.empty())
    throw std::invalid_argument("missing --scenario scenario:<seed>[...]");
  return scenario::generateFromName(name);
}

int cmdList(const Args& args) {
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

int cmdDescribe(const Args& args) {
  const scenario::Scenario sc = scenarioFromArgs(args);
  const hls::Kernel& k = sc.kernel();
  std::printf("%s  (%s)\n\n", sc.name.c_str(),
              sc.benchmark->description.c_str());

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

  const sim::DieMap& dm = sc.benchmark->die_map;
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

  std::printf("\nspace spec (raw size %.3g):\n%s", sc.spec().rawSize(),
              hls::formatSpaceSpec(k, sc.spec()).c_str());
  return 0;
}

int cmdOracle(const Args& args) {
  const scenario::Scenario sc = scenarioFromArgs(args);
  const double eps = args.getDouble("eps", 0.10);

  const auto oracle = scenario::Oracle::build(sc);
  if (!oracle) {
    std::fprintf(stderr,
                 "pruned space too large for exhaustive enumeration "
                 "(cap %zu); pick a smaller :size=\n",
                 scenario::OracleOptions{}.enum_cap);
    return 1;
  }
  std::printf("%s: pruned %zu configs, true front %zu points\n",
              sc.name.c_str(), oracle->space().size(),
              oracle->groundTruth().paretoFront().size());

  const scenario::PruningAudit audit = oracle->auditPruning(eps);
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
                oracle->fidelityGap(static_cast<sim::Fidelity>(f)));
  return audit.violations == 0 ? 0 : 1;
}

int cmdRun(const Args& args) {
  const scenario::Scenario sc = scenarioFromArgs(args);
  const auto oracle = scenario::Oracle::build(sc);
  if (!oracle) {
    std::fprintf(stderr, "pruned space too large for the oracle; "
                         "use the plain cmmfo CLI for ungated runs\n");
    return 1;
  }

  core::OptimizerOptions opts;
  opts.n_iter = static_cast<int>(args.getInt("iters", 30));
  opts.batch_size = 2;
  opts.n_workers = 2;
  const double budget = args.getDouble("budget", 0.0);
  if (budget > 0.0) opts.max_charged_seconds = budget;

  const auto method = baselines::BoMethod::ours(opts);
  const baselines::DseOutcome out = method.run(
      oracle->space(), oracle->sim(),
      static_cast<std::uint64_t>(args.getInt("seed", 77)));

  std::printf("%s: oracle ADRS %.4f  (%d tool runs, %.0f charged seconds",
              sc.name.c_str(), oracle->adrsOf(out.selected), out.tool_runs,
              out.tool_seconds);
  if (budget > 0.0) std::printf(" of %.0f budget", budget);
  std::printf(")\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    if (args.command == "list") return cmdList(args);
    if (args.command == "describe") return cmdDescribe(args);
    if (args.command == "oracle") return cmdOracle(args);
    if (args.command == "run") return cmdRun(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
