#pragma once

#include <chrono>

#include "obs/obs.h"

namespace cmmfo::obs {

/// RAII per-phase profiler: emits a trace span and records the elapsed
/// seconds into a `phase.<name>.seconds` histogram. All-no-op when both the
/// tracer and the metrics registry are disabled (one relaxed load each).
///
/// The phase name must be a string literal (or otherwise outlive the scope):
/// it is not copied until the span/metric is actually recorded.
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name, int round = -1)
      : span_(&tracer(), name, "phase"), name_(name) {
    if (round >= 0) span_.round(round);
    if (metrics().enabled()) {
      timed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedPhase() {
    if (!timed_) return;
    const auto end = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(end - start_)
            .count();
    metrics().observe(std::string("phase.") + name_ + ".seconds", secs);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Span span_;
  const char* name_;
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace cmmfo::obs
