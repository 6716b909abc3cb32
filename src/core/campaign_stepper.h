#pragma once

#include "core/optimizer.h"

namespace cmmfo::core {

/// Resumable one-round-at-a-time driver for a single BO campaign.
///
/// The monolithic run() loop, taken apart: construct with the campaign's
/// space/simulator/options, then call step() until the outcome says done,
/// then finish() for the final tallies. The first step() runs the
/// initialization round (or restores the checkpoint journal when
/// OptimizerOptions::resume is set); every later step() executes exactly
/// one BO round and writes the journal. Stepping yields the identical
/// trajectory to run() by construction — run() IS this loop.
///
/// The server holds one stepper per campaign and interleaves step() calls
/// from many campaigns over a SharedRuntime (one simulated farm width, one
/// namespaced eval cache); a stepper itself is single-threaded — callers
/// serialize step()/finish() per instance.
///
/// With OptimizerOptions::async set, each step() after initialization is
/// one *completion event* rather than one barrier round: it tops up the
/// in-flight window with fresh believer-conditioned proposals, then blocks
/// until exactly one evaluation lands. Fair schedulers therefore charge
/// async campaigns per completion, at a naturally finer grain than the
/// per-round charging of synchronous campaigns.
class CampaignStepper {
 public:
  CampaignStepper(const hls::DesignSpace& space, sim::FpgaToolSim& sim,
                  OptimizerOptions opts, SharedRuntime shared = {})
      : opt_(space, sim, std::move(opts), shared) {}

  /// Run the next unit of work: initialization/resume on the first call,
  /// one BO round afterwards. No-op (done outcome) once the campaign is
  /// complete.
  RoundOutcome step() {
    if (!started_) {
      started_ = true;
      return opt_.start();
    }
    return opt_.stepRound();
  }

  bool started() const { return started_; }
  /// True once no further step() will execute work.
  bool done() const { return started_ && opt_.done(); }

  /// Final accounting; call exactly once, after done().
  OptimizeResult finish() { return opt_.finish(); }
  /// The in-progress result (valid once started).
  const OptimizeResult& partialResult() const { return opt_.partialResult(); }
  const MultiFidelitySurrogate& surrogate() const { return opt_.surrogate(); }

 private:
  CorrelatedMfMoboOptimizer opt_;
  bool started_ = false;
};

}  // namespace cmmfo::core
