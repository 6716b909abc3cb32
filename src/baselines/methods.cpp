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

using Rows = std::vector<std::vector<double>>;
using Objectives = std::array<double, kNumObjectives>;
using Models = std::vector<std::unique_ptr<Regressor>>;

/// Training data collected by the regression protocol. Invalid designs are
/// penalized the same way the BO methods penalize them (10x worst).
struct TrainData {
  Rows x;
  std::vector<Objectives> impl_y;
  std::vector<Objectives> hls_y;
};

TrainData collect(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                  rng::Rng& rng, int train_size) {
  TrainData td;
  const auto idx = rng.sampleWithoutReplacement(
      space.size(), std::min<std::size_t>(train_size, space.size()));
  Objectives worst{1.0, 1.0, 1.0};
  for (std::size_t i : idx) {
    const sim::Report impl = sim.runCounted(space.config(i), Fidelity::kImpl);
    const sim::Report hls = sim.run(space.config(i), Fidelity::kHls);
    td.x.push_back(space.features(i));
    Objectives yi{};
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
    Objectives hy{};
    for (int m = 0; m < kNumObjectives; ++m) hy[m] = hobj[m];
    td.hls_y.push_back(hy);
  }
  return td;
}

/// Fits one regressor per objective on (x, y[.][m]), in objective order:
/// each fit draws from `rng` after the previous one.
Models fitPerObjective(const RegressorFactory& make, std::size_t input_dim,
                       const Rows& x, const std::vector<Objectives>& y,
                       rng::Rng& rng) {
  Models models;
  for (int m = 0; m < kNumObjectives; ++m) {
    std::vector<double> ym(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) ym[i] = y[i][m];
    models.push_back(make(input_dim));
    models.back()->fit(x, ym, rng);
  }
  return models;
}

pareto::Point predictObjectives(const Models& models,
                                const std::vector<double>& x) {
  pareto::Point p(kNumObjectives);
  for (int m = 0; m < kNumObjectives; ++m) p[m] = models[m]->predict(x);
  return p;
}

/// Predicts every configuration of the space from its features and
/// proposes the predicted Pareto set, charged for `tool_runs` Impl runs:
/// the configurations actually collected, which is fewer than asked for
/// when the training size exceeds the space.
template <class Predict>
DseOutcome proposePredictedPareto(const hls::DesignSpace& space,
                                  const sim::FpgaToolSim& sim,
                                  const RegressionProtocol& proto,
                                  int tool_runs, Predict predict) {
  pareto::ParetoFront front;
  for (std::size_t i = 0; i < space.size(); ++i)
    front.insert(predict(space.features(i)), i);
  DseOutcome out;
  out.selected = front.ids();
  if (proto.max_selected > 0 && out.selected.size() > proto.max_selected)
    out.selected.resize(proto.max_selected);
  out.tool_seconds = sim.totalToolSeconds();
  out.wall_seconds = out.tool_seconds;
  out.tool_runs = tool_runs;
  return out;
}

}  // namespace

// ------------------------------------------------------------------ BO ----

BoMethod::BoMethod(std::string name, core::MfKind mf, core::ObjModelKind obj,
                   core::OptimizerOptions opts)
    : name_(std::move(name)), opts_(std::move(opts)) {
  opts_.surrogate.mf = mf;
  opts_.surrogate.obj = obj;
}

BoMethod BoMethod::ours(core::OptimizerOptions opts) {
  return {"Ours", core::MfKind::kNonlinear, core::ObjModelKind::kCorrelated,
          std::move(opts)};
}

BoMethod BoMethod::fpl18(core::OptimizerOptions opts) {
  return {"FPL18", core::MfKind::kLinear, core::ObjModelKind::kIndependent,
          std::move(opts)};
}

DseOutcome BoMethod::run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                         std::uint64_t seed) const {
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

// ---------------------------------------------------------- ANN and BT ----

RegressionMethod::RegressionMethod(std::string name, RegressorFactory make,
                                   RegressionProtocol proto)
    : name_(std::move(name)), make_(std::move(make)), proto_(proto) {}

RegressionMethod RegressionMethod::ann(Mlp::Options mlp,
                                       RegressionProtocol proto) {
  return {"ANN",
          [mlp](std::size_t input_dim) {
            return std::make_unique<Mlp>(input_dim, mlp);
          },
          proto};
}

RegressionMethod RegressionMethod::bt(Gbrt::Options gbrt,
                                      RegressionProtocol proto) {
  return {"BT", [gbrt](std::size_t) { return std::make_unique<Gbrt>(gbrt); },
          proto};
}

DseOutcome RegressionMethod::run(const hls::DesignSpace& space,
                                 sim::FpgaToolSim& sim,
                                 std::uint64_t seed) const {
  sim.resetAccounting();
  rng::Rng rng(seed);
  const TrainData td = collect(space, sim, rng, proto_.train_size);
  const Models models =
      fitPerObjective(make_, space.featureDim(), td.x, td.impl_y, rng);
  return proposePredictedPareto(space, sim, proto_,
                                static_cast<int>(td.x.size()),
                                [&](const std::vector<double>& x) {
                                  return predictObjectives(models, x);
                                });
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
  TrainData all;
  for (int s = 0; s < num_sets_; ++s) {
    const TrainData set = collect(space, sim, rng, proto_.train_size);
    all.x.insert(all.x.end(), set.x.begin(), set.x.end());
    all.impl_y.insert(all.impl_y.end(), set.impl_y.begin(), set.impl_y.end());
    all.hls_y.insert(all.hls_y.end(), set.hls_y.begin(), set.hls_y.end());
  }

  const RegressorFactory make = [this](std::size_t) {
    return std::make_unique<Gbrt>(gbrt_);
  };
  // Stage 1: features -> post-HLS objectives ("ASIC-like" cheap reports).
  const Models hls_models =
      fitPerObjective(make, space.featureDim(), all.x, all.hls_y, rng);
  // Stage 2: [features, hls objectives] -> post-Impl objectives.
  Rows x2;
  for (std::size_t i = 0; i < all.x.size(); ++i) {
    x2.push_back(all.x[i]);
    x2.back().insert(x2.back().end(), all.hls_y[i].begin(),
                     all.hls_y[i].end());
  }
  const Models impl_models = fitPerObjective(
      make, space.featureDim() + kNumObjectives, x2, all.impl_y, rng);

  return proposePredictedPareto(
      space, sim, proto_, static_cast<int>(all.x.size()),
      [&](const std::vector<double>& x) {
        std::vector<double> x_impl = x;
        const pareto::Point hls = predictObjectives(hls_models, x);
        x_impl.insert(x_impl.end(), hls.begin(), hls.end());
        return predictObjectives(impl_models, x_impl);
      });
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
