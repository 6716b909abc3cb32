// Regenerates TABLE I of the paper: normalized ADRS, normalized standard
// deviation of ADRS, and normalized overall running time for
// {Ours, FPL18, ANN, BT, DAC19} on the six benchmarks, normalized to ANN.
//
// Environment knobs:
//   CMMFO_REPEATS=n  repeats per method/benchmark (default 5; paper uses 10)
//   CMMFO_FAST=1     2 repeats, reduced BO budget — smoke mode
//
// The absolute values live in a simulated Vivado flow, so only the SHAPE is
// comparable with the paper: Ours should achieve the lowest ADRS and the
// lowest ADRS spread on average, BO methods should cost far less tool time
// than the regression baselines, and DAC19 should cost ~7x ANN.

#include <iostream>

#include "exp/harness.h"
#include "exp/table.h"

using namespace cmmfo;

int main() {
  const int repeats = exp::repeatsFromEnv(5);
  const bool fast = exp::fastModeFromEnv();

  core::OptimizerOptions bo;
  bo.n_iter = fast ? 12 : 40;  // paper: 40 optimization steps
  bo.mc_samples = fast ? 16 : 32;
  bo.max_candidates = fast ? 100 : 300;
  bo.refit_every = fast ? 6 : 4;
  if (fast) {
    bo.surrogate.mtgp.max_mle_iters = 25;
    bo.surrogate.gp.max_mle_iters = 25;
    bo.surrogate.mtgp.mle_restarts = 0;
    bo.surrogate.gp.mle_restarts = 0;
  }

  baselines::MlpOptions mlp;
  if (fast) mlp.epochs = 300;
  baselines::RegressionProtocol proto;  // 48 training configs (paper)

  const auto ours = baselines::BoMethod::ours(bo);
  const auto fpl18 = baselines::BoMethod::fpl18(bo);
  const auto ann = baselines::RegressionMethod::ann(mlp, proto);
  const auto bt = baselines::RegressionMethod::bt({}, proto);
  const baselines::Dac19Method dac19(7, {}, proto);
  const std::vector<const baselines::DseMethod*> methods = {&ours, &fpl18, &ann,
                                                            &bt, &dac19};

  std::vector<exp::BenchmarkResults> rows;
  for (const auto& name : bench_suite::benchmarkNames()) {
    std::cerr << "== " << name << " ==" << std::endl;
    exp::BenchmarkContext ctx(bench_suite::makeBenchmark(name));
    std::cerr << "   space=" << ctx.space().size()
              << " true-pareto=" << ctx.groundTruth().paretoFront().size()
              << std::endl;
    exp::BenchmarkResults row;
    row.benchmark = name;
    for (const auto* m : methods) {
      const exp::MethodStats s = exp::evaluateMethod(ctx, *m, repeats, 1000);
      std::cerr << "   " << s.method << ": adrs=" << s.adrs_mean
                << " std=" << s.adrs_std << " time=" << s.time_mean << "s"
                << std::endl;
      row.by_method[s.method] = s;
    }
    rows.push_back(std::move(row));
  }

  std::cout << "TABLE I (reproduction) — " << repeats
            << " repeats per cell, normalized to ANN\n";
  exp::printTable1(rows, {"Ours", "FPL18", "ANN", "BT", "DAC19"}, "ANN",
                   std::cout);
  std::cout << "\nPer-run CSV:\n";
  exp::writeRunsCsv(rows, std::cout);
  return 0;
}
