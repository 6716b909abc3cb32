#include "sim/tool.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.h"
#include "rng/hash_noise.h"

namespace cmmfo::sim {

const char* fidelityName(Fidelity f) {
  switch (f) {
    case Fidelity::kHls: return "hls";
    case Fidelity::kSyn: return "syn";
    case Fidelity::kImpl: return "impl";
  }
  return "?";
}

const char* attemptStatusName(AttemptStatus s) {
  switch (s) {
    case AttemptStatus::kCompleted: return "completed";
    case AttemptStatus::kTransientCrash: return "transient-crash";
    case AttemptStatus::kTimeout: return "timeout";
    case AttemptStatus::kPersistentFailure: return "persistent-failure";
  }
  return "?";
}

namespace {
double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

struct StageState {
  double lut = 0.0;
  double clock_ns = 0.0;
  double util = 0.0;
  bool valid = true;
};
}  // namespace

FpgaToolSim::FpgaToolSim(const hls::Kernel& kernel, DeviceModel device,
                         SimParams params, std::uint64_t seed)
    : kernel_(&kernel), device_(device), params_(params), seed_(seed) {}

Report FpgaToolSim::run(const hls::DirectiveConfig& cfg,
                        Fidelity fidelity) const {
  return runStages(cfg)[static_cast<int>(fidelity)];
}

std::array<Report, kNumFidelities> FpgaToolSim::runStages(
    const hls::DirectiveConfig& cfg) const {
  const ArchEstimate est = estimateArchitecture(*kernel_, cfg, device_);
  const rng::HashNoise noise(seed_);
  const std::uint64_t ch = cfg.hash();
  const double dv = params_.divergence;
  const double ns = params_.noise_scale;

  // Shared per-configuration "corner": how lucky this particular netlist is
  // in logic optimization and routing. One draw drives area, clock and power
  // together, which is what makes the report residuals CORRELATED across
  // objectives — the phenomenon Sec. IV-B's multi-task model exploits.
  const double corner = noise.normal(ch, 7);

  // ---------------- HLS stage: the tool's pre-synthesis estimate. --------
  // Slightly optimistic on area, blind to routing congestion.
  StageState hls_state;
  hls_state.lut = est.lut_raw * 0.92;
  hls_state.util = hls_state.lut / device_.lut_capacity;
  hls_state.clock_ns =
      std::max(device_.min_clock_ns,
               est.clock_raw_ns * (1.0 + 0.15 * est.util_raw));

  // ---------------- Synthesis: logic optimization + tech mapping. --------
  // Logic sharing shrinks LUTs sub-linearly; the mapped netlist's clock
  // begins to feel utilization. Both effects are smooth non-linear
  // functions of the HLS-stage quantities, scaled by the benchmark's
  // divergence, plus deterministic per-config noise.
  StageState syn_state;
  {
    const double share = 0.74 + 0.07 * sigmoid(2.0 * corner) +
                         0.07 * sigmoid(2.0 * noise.normal(ch, 11)) +
                         0.10 * est.util_raw;
    syn_state.lut = est.lut_raw * share *
                    (1.0 + ns * (0.6 * corner + 0.4 * noise.normal(ch, 12)));
    syn_state.util = syn_state.lut / device_.lut_capacity;
    const double cong =
        1.0 + 0.5 * params_.congestion * dv * syn_state.util * syn_state.util;
    const double jitter =
        1.0 + 2.0 * ns * dv *
                  (0.6 * std::fabs(corner) + 0.4 * std::fabs(noise.normal(ch, 13)));
    // The mapped netlist's clock degrades as a POWER LAW of the raw
    // critical path (compounded levels of logic): the stage-to-stage map is
    // non-affine, which is exactly the regime of Fig. 5b / Eq. (5).
    const double warp = 1.0 + 0.25 * dv;
    const double base = est.clock_raw_ns * cong * jitter;
    syn_state.clock_ns =
        device_.min_clock_ns *
        std::pow(std::max(base / device_.min_clock_ns, 1.0), warp);
  }

  // ---------------- Implementation: place & route. ------------------------
  // Routing congestion bites hard past the knee; heavily utilized or
  // hopelessly slow designs fail placement/routing entirely (the "no valid
  // report" case of Sec. IV-C).
  //
  // On a multi-die device this is also where the floorplan bites: earlier
  // stages are die-blind, but the placer must route loop-to-array nets over
  // the inter-die SLLs. dx stays zero (and every term below a no-op) on the
  // default single-die map.
  DieCrossing dx;
  StageState impl_state;
  {
    impl_state.lut = syn_state.lut * (1.0 + 0.03 * std::fabs(noise.normal(ch, 21)));
    impl_state.util = impl_state.lut / device_.lut_capacity;
    double blowup = 0.0;
    if (impl_state.util > params_.congestion_knee) {
      const double over = impl_state.util - params_.congestion_knee;
      blowup = params_.congestion * (0.5 + dv) * over * over * 8.0;
    }
    impl_state.clock_ns =
        syn_state.clock_ns * (1.0 + blowup) *
        (1.0 + 3.0 * ns * dv *
                   (0.6 * std::fabs(corner) +
                    0.4 * std::fabs(noise.normal(ch, 22))));
    if (die_map_.enabled()) {
      dx = estimateDieCrossings(*kernel_, cfg, die_map_);
      // Registered SLL hops lengthen the routed critical path; congested
      // crossing channels compound super-linearly, like on-die congestion.
      impl_state.clock_ns += die_map_.crossing_delay_ns * dx.max_hop *
                             (1.0 + 4.0 * dx.sll_util * dx.sll_util);
    }
    const double invalid_util =
        params_.invalid_util * (1.0 + 0.04 * noise.normal(ch, 23));
    // dx.feasible is always true on a single die; SLL overflow is a crisp
    // (noise-free) failure, like running out of a physical wire pool.
    impl_state.valid = impl_state.util <= invalid_util &&
                       impl_state.clock_ns <= 3.0 * device_.target_clock_ns &&
                       dx.feasible;
  }

  // Tool runtime: synthesis and implementation dominate, and both grow with
  // design size.
  const double size_factor =
      1.0 + est.total_op_instances / 2.0e4 + 3.0 * est.util_raw;
  const double t_hls = params_.base_tool_seconds * (0.4 + 0.2 * size_factor);
  const double t_syn = t_hls + params_.base_tool_seconds *
                                   (2.0 + 2.5 * syn_state.util) * size_factor;
  // Cross-die placement takes the placer longer; 1.0 exactly (and thus
  // bit-identical times) when the die map is off.
  const double die_effort = 1.0 + 0.6 * dx.sll_util;
  const double t_impl =
      t_syn + params_.base_tool_seconds *
                  (5.0 + 14.0 * impl_state.util * impl_state.util) *
                  size_factor * die_effort;

  const StageState* states[kNumFidelities] = {&hls_state, &syn_state,
                                              &impl_state};
  const double times[kNumFidelities] = {t_hls, t_syn, t_impl};
  std::array<Report, kNumFidelities> reports{};
  for (int f = 0; f < kNumFidelities; ++f) {
    const StageState& s = *states[f];
    const bool impl = f == static_cast<int>(Fidelity::kImpl);
    Report& r = reports[f];
    r.valid = impl ? impl_state.valid : true;
    r.latency_cycles = est.latency_cycles;
    r.clock_ns = s.clock_ns;
    r.lut_util = s.util;
    r.delay_us = est.latency_cycles * s.clock_ns * 1e-3;

    // Power: leakage grows with area; dynamic power with switched
    // capacitance (active LUTs / parallel lanes) times frequency; memory
    // banks add their own share. Later stages see the refined area/clock,
    // so power inherits the same non-linear stage-to-stage structure.
    const double stage_noise =
        1.0 + ns * (0.5 + dv) *
                  (0.7 * corner + 0.3 * noise.normal(ch, 31 + f));
    const double static_w = 0.18 + 0.9 * s.util;
    const double dynamic_w =
        2.4 * s.util * (10.0 / std::max(s.clock_ns, 1e-3)) *
        (0.35 + 0.65 * std::min(est.peak_parallelism / 64.0, 1.0));
    const double mem_w = 0.004 * est.total_banks;
    r.power_w = (static_w + dynamic_w + mem_w) * stage_noise;
    // SLL drivers burn power only the implemented netlist knows about.
    if (impl && die_map_.enabled())
      r.power_w += die_map_.crossing_power_w_per_kbit * dx.sll_bits * 1e-3;
    r.tool_seconds = times[f];
  }
  return reports;
}

Report FpgaToolSim::runCounted(const hls::DirectiveConfig& cfg,
                               Fidelity fidelity) {
  const Report r = run(cfg, fidelity);
  total_tool_seconds_.fetch_add(r.tool_seconds, std::memory_order_relaxed);
  return r;
}

FlowAttempt FpgaToolSim::runFlowAttempt(const hls::DirectiveConfig& cfg,
                                        Fidelity fidelity, int attempt,
                                        double timeout_seconds) const {
  FlowAttempt fa;
  const int upto = static_cast<int>(fidelity);
  // Fault-free stage ladder: the reports the attempt would produce, plus the
  // cumulative stage times the fault events perturb.
  const std::array<Report, kNumFidelities> clean = runStages(cfg);

  if (!faults_.enabled() && timeout_seconds <= 0.0) {
    // Fast path, bit-for-bit the legacy accounting: one charged invocation
    // whose cost is the cumulative tool_seconds of the requested stage.
    std::copy_n(clean.begin(), upto + 1, fa.stages.begin());
    fa.completed_upto = upto;
    fa.attempt_seconds = clean[upto].tool_seconds;
    return fa;
  }

  // Every fault event is a keyed hash draw: persistent failures key on
  // (config, stage) only — the same stage dies on every retry — while
  // transient crashes, hangs and stalls key on (config, stage, attempt), so
  // a retried attempt rolls fresh dice. Channel ids keep draws independent.
  const rng::HashNoise fault(seed_ ^
                             (faults_.fault_seed * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t ch = cfg.hash();
  const std::uint64_t at = static_cast<std::uint64_t>(attempt);

  double elapsed = 0.0;
  bool perturbed = false;
  if (faults_.license_stall_prob > 0.0 &&
      fault.uniform(ch, 0, at, 204) < faults_.license_stall_prob) {
    elapsed += faults_.license_stall_seconds;
    perturbed = true;
  }
  for (int s = 0; s <= upto; ++s) {
    const double t_prev = s == 0 ? 0.0 : clean[s - 1].tool_seconds;
    double stage_t = clean[s].tool_seconds - t_prev;
    if (faults_.hang_prob > 0.0 &&
        fault.uniform(ch, s, at, 203) < faults_.hang_prob) {
      stage_t *= faults_.hang_multiplier;
      perturbed = true;
    }
    const bool persistent =
        faults_.persistent_failure_prob > 0.0 &&
        fault.uniform(ch, s, 0, 201) < faults_.persistent_failure_prob;
    const bool transient =
        !persistent && faults_.transient_crash_prob > 0.0 &&
        fault.uniform(ch, s, at, 202) < faults_.transient_crash_prob;

    // Crashes burn a deterministic fraction of the stage before dying.
    double spent = stage_t;
    if (persistent)
      spent = 0.9 * stage_t;
    else if (transient)
      spent = (0.25 + 0.5 * fault.uniform(ch, s, at, 205)) * stage_t;

    if (timeout_seconds > 0.0 && elapsed + spent > timeout_seconds) {
      // The scheduler kills the attempt at the deadline; no more than the
      // timeout is ever charged for one attempt.
      fa.status = AttemptStatus::kTimeout;
      fa.failed_stage = s;
      fa.attempt_seconds = timeout_seconds;
      return fa;
    }
    elapsed += spent;
    if (persistent || transient) {
      fa.status = persistent ? AttemptStatus::kPersistentFailure
                             : AttemptStatus::kTransientCrash;
      fa.failed_stage = s;
      fa.attempt_seconds = elapsed;
      return fa;
    }
    fa.stages[s] = clean[s];
    fa.completed_upto = s;
  }
  // No event touched the clock: keep the cumulative value bit-for-bit so a
  // timeout-only policy with no faults stays exactly on the legacy numbers.
  fa.attempt_seconds = perturbed ? elapsed : clean[upto].tool_seconds;
  return fa;
}

FlowAttempt FpgaToolSim::runFlowAttemptCounted(const hls::DirectiveConfig& cfg,
                                               Fidelity fidelity, int attempt,
                                               double timeout_seconds) {
  // Span and counters are worker-thread-safe: integer counter increments are
  // order-independent, and nothing here feeds back into the simulation.
  obs::Span span(&obs::tracer(), "flow_attempt", "sim");
  span.fidelity(static_cast<int>(fidelity)).attempts(attempt);
  FlowAttempt fa = runFlowAttempt(cfg, fidelity, attempt, timeout_seconds);
  total_tool_seconds_.fetch_add(fa.attempt_seconds, std::memory_order_relaxed);
  span.value(fa.attempt_seconds).outcome(attemptStatusName(fa.status));
  if (obs::metrics().enabled()) {
    obs::metrics().add("sim.flow_attempts");
    obs::metrics().add(std::string("sim.attempt_status.") +
                       attemptStatusName(fa.status));
  }
  return fa;
}

std::array<double, kNumFidelities> FpgaToolSim::nominalStageSeconds() const {
  // Use the all-default configuration as the nominal design.
  hls::DirectiveConfig cfg;
  cfg.loops.resize(kernel_->numLoops());
  cfg.arrays.resize(kernel_->numArrays());
  const std::array<Report, kNumFidelities> stages = runStages(cfg);
  std::array<double, kNumFidelities> t{};
  for (int f = 0; f < kNumFidelities; ++f) t[f] = stages[f].tool_seconds;
  return t;
}

}  // namespace cmmfo::sim
