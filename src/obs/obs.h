#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/run_meta.h"
#include "obs/trace.h"

namespace cmmfo::obs {

/// The process-wide telemetry facade: one tracer, one metrics registry and
/// one flight recorder. All three are disabled by default, so instrumented
/// code in the hot path pays a single relaxed atomic load when telemetry is
/// off, and none of them ever feeds back into the run.
///
/// Tests run one gtest case per process (gtest_discover_tests), so global
/// state here cannot leak between test cases; still, tests that flip the
/// enabled flags should reset() in their teardown for in-process hygiene.
struct Observability {
  Tracer tracer;
  MetricsRegistry metrics;
  DiagRecorder recorder;

  /// Disable everything and drop all buffered events, series and records.
  void reset() {
    tracer.setEnabled(false);
    metrics.setEnabled(false);
    recorder.setEnabled(false);
    tracer.clear();
    metrics.clear();
    recorder.clear();
  }
};

Observability& global();

/// Shorthands used at instrumentation sites. The recorder is global so
/// scheduler worker threads can emit health warnings without plumbing.
inline Tracer& tracer() { return global().tracer; }
inline MetricsRegistry& metrics() { return global().metrics; }
inline DiagRecorder& recorder() { return global().recorder; }

/// An end-of-run dump of the global tracer or metrics registry.
enum class Dump { kTrace, kChromeTrace, kMetrics };

/// Write one dump to `path` ("-" = stdout) in the format every tool uses:
/// the trace as JSONL after a metaJsonLine header; the chrome://tracing
/// document bare (it must stay a single JSON value); the metrics as JSON
/// after a metaJsonLine header when `path` ends in ".json", else as CSV
/// after a metaCsvComment. False when the file cannot be written.
bool writeDump(Dump what, const std::string& path, const RunMeta& meta);

}  // namespace cmmfo::obs
