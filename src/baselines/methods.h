#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/gbrt.h"
#include "baselines/mlp.h"
#include "core/optimizer.h"
#include "hls/design_space.h"
#include "sim/tool.h"

namespace cmmfo::baselines {

/// Outcome of one DSE method run: the configurations the method proposes as
/// Pareto-optimal, plus the simulated tool time it consumed. ADRS is
/// computed downstream against the ground truth.
struct DseOutcome {
  std::vector<std::size_t> selected;  // design-space indices
  double tool_seconds = 0.0;
  /// Simulated elapsed time on the method's worker farm. Methods that run
  /// strictly sequentially report wall_seconds == tool_seconds.
  double wall_seconds = 0.0;
  int tool_runs = 0;

  // ---- Fault-tolerance accounting (BO methods only; zero when the fault
  // layer is off or the method has no retry-aware scheduler). ----
  int attempts = 0;
  int transient_failures = 0;
  int timeouts = 0;
  int persistent_failures = 0;
  int degraded_jobs = 0;
  double wasted_seconds = 0.0;   // charged seconds burned by failed attempts
  double backoff_seconds = 0.0;  // wall-only retry waits
};

/// Common interface for all compared methods (Sec. V-A).
class DseMethod {
 public:
  virtual ~DseMethod() = default;
  virtual std::string name() const = 0;
  /// Runs the method; `sim` accounting is reset on entry.
  virtual DseOutcome run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                         std::uint64_t seed) const = 0;
};

/// The BO skeleton of Algorithm 2 with the surrogate's two model kinds
/// pinned over the caller's options: how fidelities chain (`MfKind`) and how
/// objectives are modelled (`ObjModelKind`). Every other option, the fit
/// budgets included, is the caller's.
class BoMethod final : public DseMethod {
 public:
  BoMethod(std::string name, core::MfKind mf, core::ObjModelKind obj,
           core::OptimizerOptions opts = {});
  /// "Ours": non-linear Eq. 5 chaining with the correlated Eq. 9 MTGP.
  static BoMethod ours(core::OptimizerOptions opts = {});
  /// FPL18 [12]: linear AR(1) chaining with independent per-objective GPs.
  static BoMethod fpl18(core::OptimizerOptions opts = {});

  std::string name() const override { return name_; }
  DseOutcome run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                 std::uint64_t seed) const override;
  const core::OptimizerOptions& options() const { return opts_; }

 private:
  std::string name_;
  core::OptimizerOptions opts_;
};

/// Shared protocol of the regression baselines (ANN / BT / DAC19): sample
/// `train_size` random configurations, run them to the highest fidelity,
/// fit per-objective regressors, predict the whole space, propose the
/// predicted Pareto set.
struct RegressionProtocol {
  int train_size = 48;  // paper: 48 initialization configurations
  /// Cap on the number of proposed configurations (0 = no cap).
  std::size_t max_selected = 0;
};

/// Builds an unfitted regressor for inputs of dimension `input_dim`.
using RegressorFactory =
    std::function<std::unique_ptr<Regressor>(std::size_t input_dim)>;

/// The single-stage regression baselines: one regressor per objective,
/// fitted from directive features to post-Impl reports.
class RegressionMethod final : public DseMethod {
 public:
  /// ANN baseline: 2-hidden-layer MLPs.
  static RegressionMethod ann(Mlp::Options mlp = {},
                              RegressionProtocol proto = {});
  /// Boosting-tree baseline (BT) of [7]-[9].
  static RegressionMethod bt(Gbrt::Options gbrt = {},
                             RegressionProtocol proto = {});

  std::string name() const override { return name_; }
  DseOutcome run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                 std::uint64_t seed) const override;

 private:
  RegressionMethod(std::string name, RegressorFactory make,
                   RegressionProtocol proto);

  std::string name_;
  RegressorFactory make_;
  RegressionProtocol proto_;
};

/// DAC19 [20]: cross-stage regression transfer — predict post-Impl reports
/// from directive features plus (predicted) post-HLS reports, trained on
/// `num_sets` independent training sets (paper: 3..11, average 7, hence the
/// 7x running time in Table I).
class Dac19Method final : public DseMethod {
 public:
  Dac19Method(int num_sets = 7, Gbrt::Options gbrt = {},
              RegressionProtocol proto = {});
  std::string name() const override { return "DAC19"; }
  DseOutcome run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                 std::uint64_t seed) const override;

 private:
  int num_sets_;
  Gbrt::Options gbrt_;
  RegressionProtocol proto_;
};

/// Weighted-sum scalarization BO — the "straightforward strategy" of
/// Sec. II-C ("define the objective value as a summation of all objectives
/// with weights") that the Pareto machinery exists to beat: a single-output
/// GP over the weighted sum of min-max-normalized objectives, driven by
/// plain expected improvement (Eq. 2) at the impl fidelity.
class WeightedSumBoMethod final : public DseMethod {
 public:
  /// `weights` must have one entry per objective; defaults to equal.
  explicit WeightedSumBoMethod(int n_init = 8, int n_iter = 40,
                               std::vector<double> weights = {});
  std::string name() const override { return "WeightedSum"; }
  DseOutcome run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                 std::uint64_t seed) const override;

 private:
  int n_init_;
  int n_iter_;
  std::vector<double> weights_;
};

/// Pure random sampling reference (not in the paper's table; used by the
/// ablation bench as a floor).
class RandomMethod final : public DseMethod {
 public:
  explicit RandomMethod(int budget = 48) : budget_(budget) {}
  std::string name() const override { return "Random"; }
  DseOutcome run(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                 std::uint64_t seed) const override;

 private:
  int budget_;
};

}  // namespace cmmfo::baselines
