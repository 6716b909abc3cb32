#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "hls/directives.h"
#include "sim/device.h"
#include "sim/die.h"
#include "sim/perf_model.h"

namespace cmmfo::sim {

/// The three design-flow stages (fidelities) of Fig. 2.
enum class Fidelity : int { kHls = 0, kSyn = 1, kImpl = 2 };
inline constexpr int kNumFidelities = 3;
const char* fidelityName(Fidelity f);

/// One stage report. Objectives are MINIMIZED: power (W), delay (us, i.e.
/// latency x clock period — Sec. III-C) and LUT utilization (fraction).
struct Report {
  bool valid = true;
  double power_w = 0.0;
  double delay_us = 0.0;
  double lut_util = 0.0;
  double latency_cycles = 0.0;
  double clock_ns = 0.0;
  /// Simulated tool runtime (seconds) to reach this fidelity from scratch
  /// (cumulative over stages, the T_i of Eq. 10).
  double tool_seconds = 0.0;

  /// Objective vector (power, delay, lut). Only meaningful when valid.
  std::vector<double> objectives() const { return {power_w, delay_us, lut_util}; }
};
inline constexpr int kNumObjectives = 3;
inline const char* objectiveName(int m) {
  constexpr const char* kNames[kNumObjectives] = {"Power", "Delay", "LUT"};
  return kNames[m];
}

/// Behavioral knobs of the simulated flow. `divergence` controls how
/// non-linearly syn/impl reports depart from hls reports — the paper's
/// Fig. 5 shows both regimes (GEMM nearly overlapping, SPMV_ELLPACK widely
/// divergent), so each benchmark picks its own value.
struct SimParams {
  /// 0 = stages nearly agree; 1 = strong non-linear divergence.
  double divergence = 0.4;
  /// Relative magnitude of deterministic per-config "process" noise.
  double noise_scale = 0.03;
  /// Congestion sensitivity of the routed clock.
  double congestion = 2.2;
  /// Utilization where routing starts degrading sharply.
  double congestion_knee = 0.6;
  /// Utilization beyond which placement/routing fails (invalid design).
  double invalid_util = 0.92;
  /// Baseline HLS-stage tool runtime in seconds.
  double base_tool_seconds = 40.0;
};

/// Failure-mode knobs of the simulated flow (all off by default, making the
/// fault layer a strict no-op). Every event is drawn from a keyed hash of
/// (config, stage, attempt), so runs are reproducible, the ground-truth
/// Pareto set stays well-defined (run() never faults), and a retried attempt
/// sees an independent draw — exactly the "flaky Vivado" regime.
struct FaultParams {
  /// Per-stage probability that an attempt crashes partway through the
  /// stage (placement/routing segfaults, tool license drops mid-run).
  /// Independent across attempts: retrying can succeed.
  double transient_crash_prob = 0.0;
  /// Per-stage probability that an attempt wedges: the stage takes
  /// `hang_multiplier`x its nominal time. Without a scheduler timeout the
  /// hung run eventually completes (and is charged in full); with one it is
  /// killed at the timeout.
  double hang_prob = 0.0;
  double hang_multiplier = 20.0;
  /// Per-attempt probability of a license stall before the flow starts;
  /// stalled attempts charge `license_stall_seconds` extra.
  double license_stall_prob = 0.0;
  double license_stall_seconds = 300.0;
  /// Per-(config, stage) probability that the stage fails on EVERY attempt
  /// (a design that reliably crashes the tool). Retrying never helps; the
  /// scheduler should give up immediately.
  double persistent_failure_prob = 0.0;
  /// Salt for the fault stream, independent of the report noise seed.
  std::uint64_t fault_seed = 0xFA17;

  bool enabled() const {
    return transient_crash_prob > 0.0 || hang_prob > 0.0 ||
           license_stall_prob > 0.0 || persistent_failure_prob > 0.0;
  }
};

/// How one flow attempt ended.
enum class AttemptStatus {
  kCompleted,         ///< every requested stage finished
  kTransientCrash,    ///< a stage crashed; retrying may succeed
  kTimeout,           ///< killed at the scheduler's attempt timeout
  kPersistentFailure  ///< this (config, stage) fails every attempt
};
const char* attemptStatusName(AttemptStatus s);

/// Outcome of one fault-aware flow attempt. Stage reports are filled for
/// every stage that completed (`stages[0..completed_upto]`); a failed
/// attempt still charges the simulated seconds it burned before dying.
struct FlowAttempt {
  AttemptStatus status = AttemptStatus::kCompleted;
  /// Highest stage index with a finished report; -1 if none completed.
  int completed_upto = -1;
  /// Stage that crashed / hung / persistently fails; -1 on success.
  int failed_stage = -1;
  std::array<Report, kNumFidelities> stages{};
  /// Simulated tool seconds consumed by THIS attempt (useful or not).
  double attempt_seconds = 0.0;

  bool ok() const { return status == AttemptStatus::kCompleted; }
};

/// Deterministic simulator of the Vivado-style three-stage flow for one
/// kernel. run() is pure: the same (config, fidelity) always produces the
/// same report, which is what makes an enumerable ground-truth Pareto set
/// (needed by ADRS) well-defined.
class FpgaToolSim {
 public:
  FpgaToolSim(const hls::Kernel& kernel, DeviceModel device, SimParams params,
              std::uint64_t seed);

  /// Run the flow up to `fidelity` and report that stage's view:
  /// runStages(cfg)[fidelity].
  Report run(const hls::DirectiveConfig& cfg, Fidelity fidelity) const;
  /// The reports of all three stages from one pass over the configuration
  /// (one architecture estimate).
  std::array<Report, kNumFidelities> runStages(
      const hls::DirectiveConfig& cfg) const;

  /// Fault-aware flow execution: run the stages [hls..fidelity] in order
  /// under the configured FaultParams. Pure in (config, fidelity, attempt,
  /// timeout): replaying the same attempt reproduces the same outcome.
  /// `timeout_seconds <= 0` means no timeout. With faults disabled and no
  /// timeout this completes with attempt_seconds bit-for-bit equal to
  /// run(cfg, fidelity).tool_seconds.
  FlowAttempt runFlowAttempt(const hls::DirectiveConfig& cfg, Fidelity fidelity,
                             int attempt, double timeout_seconds = 0.0) const;

  /// runFlowAttempt() plus accounting: the attempt's seconds (wasted or
  /// not) are charged to the global accumulator, mirroring a real tool farm
  /// where a crashed run still burned its license hours.
  FlowAttempt runFlowAttemptCounted(const hls::DirectiveConfig& cfg,
                                    Fidelity fidelity, int attempt,
                                    double timeout_seconds = 0.0);

  void setFaultParams(const FaultParams& faults) { faults_ = faults; }
  const FaultParams& faultParams() const { return faults_; }

  /// Multi-die floorplan (strict no-op at the default single-die map).
  /// Effects — SLL hop delay, crossing power, SLL-overflow infeasibility,
  /// placer effort — appear in IMPL reports only: lower fidelities stay
  /// die-blind, a failure mode they cannot see.
  void setDieMap(const DieMap& map) { die_map_ = map; }

  /// run() plus tool-time accounting (used by the optimizers; Table I's
  /// "overall running time" is the sum of these charges). Safe to call
  /// concurrently: the accumulator is atomic, so flows run from several
  /// threads at once charge correctly.
  Report runCounted(const hls::DirectiveConfig& cfg, Fidelity fidelity);

  double totalToolSeconds() const {
    return total_tool_seconds_.load(std::memory_order_relaxed);
  }
  void resetAccounting() {
    total_tool_seconds_.store(0.0, std::memory_order_relaxed);
  }
  /// Restore the accumulator from a checkpoint (resume path).
  void setAccounting(double seconds) {
    total_tool_seconds_.store(seconds, std::memory_order_relaxed);
  }

  /// Nominal cumulative runtime of a generic run up to each fidelity — the
  /// T_i used by the PEIPV penalty (Eq. 10); configuration-independent so
  /// the acquisition can be evaluated without running the tool.
  std::array<double, kNumFidelities> nominalStageSeconds() const;

  const hls::Kernel& kernel() const { return *kernel_; }
  const DeviceModel& device() const { return device_; }
  const SimParams& params() const { return params_; }

 private:
  const hls::Kernel* kernel_;
  DeviceModel device_;
  SimParams params_;
  FaultParams faults_;
  DieMap die_map_;
  std::uint64_t seed_;
  std::atomic<double> total_tool_seconds_{0.0};
};

}  // namespace cmmfo::sim
