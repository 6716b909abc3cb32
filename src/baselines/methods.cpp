#include "baselines/methods.h"

#include <algorithm>
#include <cmath>

#include "core/acquisition.h"
#include "core/campaign_stepper.h"
#include "gp/kernel.h"
#include "pareto/dominance.h"

namespace cmmfo::baselines {

using sim::Fidelity;
using sim::kNumObjectives;

namespace {

/// Pareto-filter a set of predicted objective vectors and return the
/// corresponding design-space indices.
std::vector<std::size_t> predictedParetoIndices(
    const std::vector<pareto::Point>& predictions,
    const std::vector<std::size_t>& index_map, std::size_t cap) {
  pareto::ParetoFront front;
  for (std::size_t i = 0; i < predictions.size(); ++i)
    front.insert(predictions[i], index_map[i]);
  std::vector<std::size_t> out = front.ids();
  if (cap > 0 && out.size() > cap) out.resize(cap);
  return out;
}

/// Training data collected by the regression protocol. Invalid designs are
/// penalized the same way the BO methods penalize them (10x worst).
struct TrainData {
  std::vector<std::vector<double>> x;
  std::vector<std::array<double, kNumObjectives>> impl_y;
  std::vector<std::array<double, kNumObjectives>> hls_y;
};

TrainData collect(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                  rng::Rng& rng, int train_size) {
  TrainData td;
  const auto idx = rng.sampleWithoutReplacement(
      space.size(), std::min<std::size_t>(train_size, space.size()));
  std::array<double, kNumObjectives> worst{1.0, 1.0, 1.0};
  for (std::size_t i : idx) {
    const sim::Report impl = sim.runCounted(space.config(i), Fidelity::kImpl);
    const sim::Report hls = sim.run(space.config(i), Fidelity::kHls);
    td.x.push_back(space.features(i));
    std::array<double, kNumObjectives> yi{};
    if (impl.valid) {
      const auto obj = impl.objectives();
      for (int m = 0; m < kNumObjectives; ++m) {
        yi[m] = obj[m];
        worst[m] = std::max(worst[m], obj[m]);
      }
    } else {
      for (int m = 0; m < kNumObjectives; ++m) yi[m] = 10.0 * worst[m];
    }
    td.impl_y.push_back(yi);
    const auto hobj = hls.objectives();
    std::array<double, kNumObjectives> hy{};
    for (int m = 0; m < kNumObjectives; ++m) hy[m] = hobj[m];
    td.hls_y.push_back(hy);
  }
  return td;
}

}  // namespace

// ---------------------------------------------------------------- Ours ----

OursMethod::OursMethod(core::OptimizerOptions opts) : opts_(opts) {
  opts_.surrogate.mf = core::MfKind::kNonlinear;
  opts_.surrogate.obj = core::ObjModelKind::kCorrelated;
}

DseOutcome OursMethod::run(const hls::DesignSpace& space,
                           sim::FpgaToolSim& sim, std::uint64_t seed) const {
  sim.resetAccounting();
  core::OptimizerOptions o = opts_;
  o.seed = seed;
  // Drive through the campaign stepper — the same round-at-a-time loop the
  // multi-campaign server interleaves, here run back to back.
  core::CampaignStepper stepper(space, sim, o);
  while (!stepper.done()) stepper.step();
  const core::OptimizeResult res = stepper.finish();
  DseOutcome out;
  for (const auto& rec : res.cs) out.selected.push_back(rec.config);
  out.tool_seconds = res.tool_seconds;
  out.wall_seconds = res.wall_seconds;
  out.tool_runs = res.tool_runs;
  out.attempts = res.attempts;
  out.transient_failures = res.transient_failures;
  out.timeouts = res.timeouts;
  out.persistent_failures = res.persistent_failures;
  out.degraded_jobs = res.degraded_jobs;
  out.wasted_seconds = res.wasted_seconds;
  out.backoff_seconds = res.backoff_seconds;
  return out;
}

// --------------------------------------------------------------- FPL18 ----

Fpl18Method::Fpl18Method(core::OptimizerOptions opts) : opts_(opts) {
  opts_.surrogate.mf = core::MfKind::kLinear;
  opts_.surrogate.obj = core::ObjModelKind::kIndependent;
}

DseOutcome Fpl18Method::run(const hls::DesignSpace& space,
                            sim::FpgaToolSim& sim, std::uint64_t seed) const {
  sim.resetAccounting();
  core::OptimizerOptions o = opts_;
  o.seed = seed;
  core::CorrelatedMfMoboOptimizer opt(space, sim, o);
  const core::OptimizeResult res = opt.run();
  DseOutcome out;
  for (const auto& rec : res.cs) out.selected.push_back(rec.config);
  out.tool_seconds = res.tool_seconds;
  out.wall_seconds = res.wall_seconds;
  out.tool_runs = res.tool_runs;
  out.attempts = res.attempts;
  out.transient_failures = res.transient_failures;
  out.timeouts = res.timeouts;
  out.persistent_failures = res.persistent_failures;
  out.degraded_jobs = res.degraded_jobs;
  out.wasted_seconds = res.wasted_seconds;
  out.backoff_seconds = res.backoff_seconds;
  return out;
}

// ----------------------------------------------------------------- ANN ----

AnnMethod::AnnMethod(Mlp::Options mlp, RegressionProtocol proto)
    : mlp_(std::move(mlp)), proto_(proto) {}

DseOutcome AnnMethod::run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                          std::uint64_t seed) const {
  sim.resetAccounting();
  rng::Rng rng(seed);
  const TrainData td = collect(space, sim, rng, proto_.train_size);

  std::vector<Mlp> nets;
  for (int m = 0; m < kNumObjectives; ++m) {
    std::vector<double> y(td.x.size());
    for (std::size_t i = 0; i < td.x.size(); ++i) y[i] = td.impl_y[i][m];
    nets.emplace_back(space.featureDim(), mlp_);
    nets.back().fit(td.x, y, rng);
  }

  std::vector<pareto::Point> predictions;
  std::vector<std::size_t> index_map;
  for (std::size_t i = 0; i < space.size(); ++i) {
    pareto::Point p(kNumObjectives);
    for (int m = 0; m < kNumObjectives; ++m)
      p[m] = nets[m].predict(space.features(i));
    predictions.push_back(std::move(p));
    index_map.push_back(i);
  }

  DseOutcome out;
  out.selected =
      predictedParetoIndices(predictions, index_map, proto_.max_selected);
  out.tool_seconds = sim.totalToolSeconds();
  out.wall_seconds = out.tool_seconds;
  out.tool_runs = proto_.train_size;
  return out;
}

// ------------------------------------------------------------------ BT ----

BtMethod::BtMethod(Gbrt::Options gbrt, RegressionProtocol proto)
    : gbrt_(gbrt), proto_(proto) {}

DseOutcome BtMethod::run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                         std::uint64_t seed) const {
  sim.resetAccounting();
  rng::Rng rng(seed);
  const TrainData td = collect(space, sim, rng, proto_.train_size);

  std::vector<Gbrt> models;
  for (int m = 0; m < kNumObjectives; ++m) {
    std::vector<double> y(td.x.size());
    for (std::size_t i = 0; i < td.x.size(); ++i) y[i] = td.impl_y[i][m];
    models.emplace_back(gbrt_);
    models.back().fit(td.x, y, rng);
  }

  std::vector<pareto::Point> predictions;
  std::vector<std::size_t> index_map;
  for (std::size_t i = 0; i < space.size(); ++i) {
    pareto::Point p(kNumObjectives);
    for (int m = 0; m < kNumObjectives; ++m)
      p[m] = models[m].predict(space.features(i));
    predictions.push_back(std::move(p));
    index_map.push_back(i);
  }

  DseOutcome out;
  out.selected =
      predictedParetoIndices(predictions, index_map, proto_.max_selected);
  out.tool_seconds = sim.totalToolSeconds();
  out.wall_seconds = out.tool_seconds;
  out.tool_runs = proto_.train_size;
  return out;
}

// --------------------------------------------------------------- DAC19 ----

Dac19Method::Dac19Method(int num_sets, Gbrt::Options gbrt,
                         RegressionProtocol proto)
    : num_sets_(num_sets), gbrt_(gbrt), proto_(proto) {}

DseOutcome Dac19Method::run(const hls::DesignSpace& space,
                            sim::FpgaToolSim& sim, std::uint64_t seed) const {
  sim.resetAccounting();
  rng::Rng rng(seed);

  // num_sets independent training sets (the paper's 3..11 hyperparameter):
  // each costs a full batch of Impl runs, which is where DAC19's 7x
  // running time in Table I comes from.
  std::vector<TrainData> sets;
  for (int s = 0; s < num_sets_; ++s)
    sets.push_back(collect(space, sim, rng, proto_.train_size));
  TrainData all;
  for (const auto& s : sets) {
    all.x.insert(all.x.end(), s.x.begin(), s.x.end());
    all.impl_y.insert(all.impl_y.end(), s.impl_y.begin(), s.impl_y.end());
    all.hls_y.insert(all.hls_y.end(), s.hls_y.begin(), s.hls_y.end());
  }

  // Stage 1: features -> post-HLS objectives ("ASIC-like" cheap reports).
  std::vector<Gbrt> hls_models;
  for (int m = 0; m < kNumObjectives; ++m) {
    std::vector<double> y(all.x.size());
    for (std::size_t i = 0; i < all.x.size(); ++i) y[i] = all.hls_y[i][m];
    hls_models.emplace_back(gbrt_);
    hls_models.back().fit(all.x, y, rng);
  }
  // Stage 2: [features, hls objectives] -> post-Impl objectives.
  std::vector<std::vector<double>> x2;
  for (std::size_t i = 0; i < all.x.size(); ++i) {
    std::vector<double> xi = all.x[i];
    for (int m = 0; m < kNumObjectives; ++m) xi.push_back(all.hls_y[i][m]);
    x2.push_back(std::move(xi));
  }
  std::vector<Gbrt> impl_models;
  for (int m = 0; m < kNumObjectives; ++m) {
    std::vector<double> y(all.x.size());
    for (std::size_t i = 0; i < all.x.size(); ++i) y[i] = all.impl_y[i][m];
    impl_models.emplace_back(gbrt_);
    impl_models.back().fit(x2, y, rng);
  }

  std::vector<pareto::Point> predictions;
  std::vector<std::size_t> index_map;
  for (std::size_t i = 0; i < space.size(); ++i) {
    std::vector<double> xi = space.features(i);
    for (int m = 0; m < kNumObjectives; ++m)
      xi.push_back(hls_models[m].predict(space.features(i)));
    pareto::Point p(kNumObjectives);
    for (int m = 0; m < kNumObjectives; ++m) p[m] = impl_models[m].predict(xi);
    predictions.push_back(std::move(p));
    index_map.push_back(i);
  }

  DseOutcome out;
  out.selected =
      predictedParetoIndices(predictions, index_map, proto_.max_selected);
  out.tool_seconds = sim.totalToolSeconds();
  out.wall_seconds = out.tool_seconds;
  out.tool_runs = num_sets_ * proto_.train_size;
  return out;
}

// -------------------------------------------------------- WeightedSum ----

WeightedSumBoMethod::WeightedSumBoMethod(int n_init, int n_iter,
                                         std::vector<double> weights)
    : n_init_(n_init), n_iter_(n_iter), weights_(std::move(weights)) {}

DseOutcome WeightedSumBoMethod::run(const hls::DesignSpace& space,
                                    sim::FpgaToolSim& sim,
                                    std::uint64_t seed) const {
  sim.resetAccounting();
  rng::Rng rng(seed);
  std::vector<double> w = weights_;
  if (w.empty()) w.assign(kNumObjectives, 1.0 / kNumObjectives);

  std::vector<std::size_t> sampled;
  std::vector<std::array<double, kNumObjectives>> ys;
  std::vector<bool> seen(space.size(), false);
  std::array<double, kNumObjectives> worst{1.0, 1.0, 1.0};

  auto observe = [&](std::size_t idx) {
    const sim::Report r = sim.runCounted(space.config(idx), Fidelity::kImpl);
    std::array<double, kNumObjectives> y{};
    if (r.valid) {
      const auto obj = r.objectives();
      for (int m = 0; m < kNumObjectives; ++m) {
        y[m] = obj[m];
        worst[m] = std::max(worst[m], obj[m]);
      }
    } else {
      for (int m = 0; m < kNumObjectives; ++m) y[m] = 10.0 * worst[m];
    }
    sampled.push_back(idx);
    ys.push_back(y);
    seen[idx] = true;
  };

  for (std::size_t i : rng.sampleWithoutReplacement(
           space.size(),
           std::min<std::size_t>(n_init_, space.size() > 1 ? space.size() - 1
                                                           : space.size())))
    observe(i);

  gp::GpFitOptions gopts;
  gopts.mle_restarts = 1;
  gopts.max_mle_iters = 40;

  for (int t = 0; t < n_iter_; ++t) {
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < space.size(); ++i)
      if (!seen[i]) pool.push_back(i);
    if (pool.empty()) break;

    // Scalarize: weighted sum of per-objective min-max-normalized values.
    std::array<double, kNumObjectives> lo{}, hi{};
    lo.fill(1e300);
    hi.fill(-1e300);
    for (const auto& y : ys)
      for (int m = 0; m < kNumObjectives; ++m) {
        lo[m] = std::min(lo[m], y[m]);
        hi[m] = std::max(hi[m], y[m]);
      }
    std::vector<double> targets;
    gp::Dataset inputs;
    for (std::size_t i = 0; i < ys.size(); ++i) {
      double s = 0.0;
      for (int m = 0; m < kNumObjectives; ++m)
        s += w[m] * (ys[i][m] - lo[m]) / std::max(hi[m] - lo[m], 1e-12);
      targets.push_back(s);
      inputs.push_back(space.features(sampled[i]));
    }
    const double best = *std::min_element(targets.begin(), targets.end());

    gp::GpRegressor model(gp::Matern52Ard(space.featureDim()), gopts);
    model.fit(inputs, targets, rng);

    double best_ei = -1.0;
    std::size_t best_idx = pool[0];
    for (std::size_t ci : pool) {
      const gp::Posterior p = model.predict(space.features(ci));
      const double ei = core::expectedImprovement(
          p.mean, std::sqrt(std::max(p.var, 0.0)), best);
      if (ei > best_ei) {
        best_ei = ei;
        best_idx = ci;
      }
    }
    observe(best_idx);
  }

  DseOutcome out;
  out.selected = sampled;
  out.tool_seconds = sim.totalToolSeconds();
  out.wall_seconds = out.tool_seconds;
  out.tool_runs = static_cast<int>(sampled.size());
  return out;
}

// -------------------------------------------------------------- Random ----

DseOutcome RandomMethod::run(const hls::DesignSpace& space,
                             sim::FpgaToolSim& sim, std::uint64_t seed) const {
  sim.resetAccounting();
  rng::Rng rng(seed);
  const auto idx = rng.sampleWithoutReplacement(
      space.size(), std::min<std::size_t>(budget_, space.size()));
  pareto::ParetoFront front;
  for (std::size_t i : idx) {
    const sim::Report r = sim.runCounted(space.config(i), Fidelity::kImpl);
    if (r.valid) front.insert(r.objectives(), i);
  }
  DseOutcome out;
  out.selected = front.ids();
  out.tool_seconds = sim.totalToolSeconds();
  out.wall_seconds = out.tool_seconds;
  out.tool_runs = static_cast<int>(idx.size());
  return out;
}

}  // namespace cmmfo::baselines
