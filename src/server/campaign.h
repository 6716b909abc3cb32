#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "bench_suite/benchmarks.h"
#include "core/campaign_stepper.h"
#include "hls/design_space.h"
#include "sim/tool.h"
#include "util/json.h"

namespace cmmfo::server {

/// Everything needed to (re)create one tenant's BO campaign. Serialized to
/// `<journal>/<id>.spec.json` at submit time, so a killed daemon can rebuild
/// the exact same optimizer on restart and resume its checkpoint journal.
struct CampaignSpec {
  std::string id;
  std::string benchmark = "spmv_crs";
  /// Simulator behavior seed: campaigns agree on the tool's ground truth
  /// (and may share cache artifacts) only when benchmark AND sim_seed match.
  std::uint64_t sim_seed = 42;
  /// Fair-share weight: a weight-2 tenant is entitled to twice the charged
  /// tool-seconds of a weight-1 tenant.
  double weight = 1.0;
  /// Optimizer knobs (seed, budget, batch size, surrogate effort, ...).
  core::OptimizerOptions opts;
};

/// Campaign ids become journal file names: restrict to [A-Za-z0-9_-] so a
/// hostile id cannot traverse out of the journal directory.
bool validCampaignId(const std::string& id);

/// The cache namespace two campaigns share iff they run the same tool on
/// the same benchmark (same deterministic report function): a fingerprint
/// of (benchmark, sim_seed). Campaign seed is deliberately excluded —
/// different search trajectories over the same space want each other's
/// artifacts.
std::uint64_t cacheNamespaceOf(const CampaignSpec& spec);

/// The per-campaign key for cache hit/miss accounting: a fingerprint of the
/// campaign id. Campaigns sharing a namespace (same benchmark + sim_seed)
/// share ARTIFACTS but keep separate counter ledgers, so one tenant's
/// checkpoint restore or streamed stats can never clobber another's.
std::uint64_t cacheLedgerOf(const CampaignSpec& spec);

/// Spec <-> JSON (the submit message body and the journal spec file share
/// this format). Unknown keys are ignored; missing keys take the defaults.
std::string specToJson(const CampaignSpec& spec);
bool specFromJson(const util::Json& j, CampaignSpec* out, std::string* err);

enum class CampaignState {
  kQueued,     ///< runnable, waiting for a driver slot
  kRunning,    ///< a driver is inside step() right now
  kPaused,     ///< held by the tenant; resume re-queues it
  kDone,       ///< proposal budget spent (or space exhausted)
  kCancelled,  ///< stopped by the tenant; result covers completed rounds
  kFailed,     ///< step() threw; see StatusSnapshot::error
};
const char* stateName(CampaignState s);
bool terminal(CampaignState s);

/// One consistent view of a campaign for status/list responses.
struct StatusSnapshot {
  std::string id;
  CampaignState state = CampaignState::kQueued;
  int rounds = 0;     ///< BO rounds executed (all processes)
  int proposals = 0;  ///< proposals executed out of opts.n_iter
  double charged_seconds = 0.0;
  double wall_seconds = 0.0;  ///< this campaign alone on the farm
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double hypervolume = 0.0;  ///< NaN until the top fidelity has data
  bool resumed = false;
  double weight = 1.0;
  int restarts = 0;  ///< supervised restarts after step failures
  std::string error;
};

/// One tenant's campaign inside the server: the spec, its private
/// simulator + stepper, and a small state machine.
///
/// Concurrency contract: exactly one driver thread is inside runStep() at a
/// time — beginStep() is the gate (kQueued -> kRunning transitions are
/// atomic under mu_, so two drivers cannot both acquire). The stepper
/// itself is then used without locks. Everything observers read
/// (state/snapshot) is guarded by mu_; pause/cancel during a step are
/// recorded as pending flags and applied by endStep(), i.e. between rounds.
class Campaign {
 public:
  using Clock = std::chrono::steady_clock;

  Campaign(CampaignSpec spec, std::shared_ptr<const hls::DesignSpace> space,
           core::SharedRuntime shared);

  const CampaignSpec& spec() const { return spec_; }
  CampaignState state() const;
  StatusSnapshot snapshot() const;
  /// Charged seconds normalized by weight — the fair-share deficit key.
  double deficit() const;

  /// kQueued -> kRunning; false when the campaign is not runnable (another
  /// driver has it, it is paused, it is terminal, or it is inside a
  /// restart-backoff window). Stamps the step start time for the watchdog.
  bool beginStep();
  /// Execute one unit of work (init/resume round or one BO round). Only the
  /// driver that won beginStep() may call this; runs unlocked.
  core::RoundOutcome runStep();
  /// Publish the outcome and leave kRunning: to kDone when the trajectory
  /// completed, else to whatever pause/cancel requested meanwhile, else
  /// back to kQueued. Returns the state entered.
  CampaignState endStep(const core::RoundOutcome& outcome);
  /// Record a step() failure: the campaign parks in kFailed with `what`.
  void fail(const std::string& what);

  // ---- Supervision (crash-only restart policy; see docs/robustness.md) ----

  /// Recover from a failed step: rebuild the simulator and stepper from the
  /// spec with resume=true (lenient), so the next step restores the last
  /// good checkpoint — or cold-starts when no/unreadable journal exists —
  /// and replays trajectory-identically. Only the driver that owns the
  /// kRunning state may call this. Honors a pending cancel (-> kCancelled,
  /// no rebuild) and a pending pause (-> kPaused after rebuild); otherwise
  /// re-queues with eligibility pushed `backoff` into the future. Returns
  /// the state entered. Throws if the rebuild itself fails (the caller then
  /// parks the campaign in kFailed).
  CampaignState scheduleRestart(std::chrono::milliseconds backoff,
                                const std::string& what);
  int restarts() const;
  /// Restart-backoff gate: the instant this campaign becomes runnable again
  /// (epoch = always eligible). The fair scheduler skips future instants.
  Clock::time_point eligibleAt() const;
  /// Seconds the in-flight step has been running (0 when not running) —
  /// the watchdog's stall measure.
  double stepSeconds(Clock::time_point now) const;
  /// First call per in-flight step returns true (the watchdog reports each
  /// stalled step once); re-armed by the next beginStep().
  bool markStalled();
  /// Monotone per-campaign draw counter for deterministic chaos injection;
  /// deliberately NOT reset by scheduleRestart so a restarted step draws a
  /// fresh fault coin instead of replaying the fatal one forever.
  std::uint64_t nextChaosTick() { return chaos_ticks_.fetch_add(1); }

  /// Tenant operations (applied between rounds when currently running).
  bool requestPause(std::string* err);
  bool requestResume(std::string* err);
  bool requestCancel(std::string* err);

  /// Final result; set once the campaign reached a terminal state with at
  /// least one executed step.
  std::optional<core::OptimizeResult> result() const;

 private:
  const CampaignSpec spec_;
  std::shared_ptr<const hls::DesignSpace> space_;
  /// Owns the kernel the simulator points into — must outlive sim_.
  std::shared_ptr<const bench_suite::Benchmark> bench_;
  /// Shared farm width/cache handles, kept so scheduleRestart can rebuild the
  /// stepper against the same runtime.
  core::SharedRuntime shared_;
  std::unique_ptr<sim::FpgaToolSim> sim_;
  /// unique_ptr so a supervised restart can discard a stepper whose step
  /// threw mid-round and rebuild from the journal.
  std::unique_ptr<core::CampaignStepper> stepper_;
  /// Root trace id of this campaign (= cacheLedgerOf(spec_)): deterministic
  /// and stable across daemon restarts, installed as the ambient trace
  /// context for the duration of every runStep().
  std::uint64_t trace_id_ = 0;

  mutable std::mutex mu_;
  CampaignState state_ = CampaignState::kQueued;
  bool pending_pause_ = false;
  bool pending_cancel_ = false;
  core::RoundOutcome last_;
  std::optional<core::OptimizeResult> result_;
  std::string error_;
  int restarts_ = 0;
  Clock::time_point eligible_at_{};  // epoch = always eligible
  Clock::time_point step_begin_{};
  bool stall_reported_ = false;
  std::atomic<std::uint64_t> chaos_ticks_{0};
};

/// Build the benchmark definition for a name. The simulator keeps a pointer
/// into the benchmark's kernel, so the returned object must outlive any
/// simulator built from it. Throws on an unknown benchmark.
std::shared_ptr<const bench_suite::Benchmark> makeBenchmarkFor(
    const std::string& benchmark);
/// Build the simulator for a spec (`bm`'s kernel + sim params on the
/// standard device, seeded with spec.sim_seed).
std::unique_ptr<sim::FpgaToolSim> makeSimFor(
    const CampaignSpec& spec, const bench_suite::Benchmark& bm);
/// Build (and prune) the design space for a benchmark name. Throws on an
/// unknown benchmark.
std::shared_ptr<const hls::DesignSpace> makeSpaceFor(
    const std::string& benchmark);

}  // namespace cmmfo::server
