#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cmmfo::obs {

enum class MetricKind : int { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* metricKindName(MetricKind k);

/// One metric's complete state. For counters `value` is the running total
/// and `count` the number of increments; for gauges `value` is the last set
/// value (count = number of sets); histograms additionally carry fixed
/// bucket boundaries and per-bucket counts (buckets[i] counts observations
/// <= bounds[i]; the last bucket is the +inf overflow).
struct MetricPoint {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries

  bool operator==(const MetricPoint&) const = default;
};

/// A full registry dump, sorted by metric name — the unit that is journaled
/// into checkpoints and compared in the round-trip tests.
using MetricsSnapshot = std::vector<MetricPoint>;

/// Process-wide metric store: counters, gauges and fixed-bucket histograms.
///
/// Design constraints, in order:
///  - observation must never perturb the run: no RNG, no feedback into any
///    algorithm state; every mutator is a no-op while disabled;
///  - determinism: bucket layouts are fixed at definition time (never
///    resized adaptively), snapshots are name-sorted, and doubles survive
///    the checkpoint journal bit-for-bit (%.17g round-trip);
///  - thread safety: one registry mutex guards the whole map. Metric
///    updates are rare (hundreds per optimization run) next to the GP
///    algebra they describe, so contention is a non-issue and a single lock
///    keeps snapshots internally consistent (no torn reads).
class MetricsRegistry {
 public:
  bool enabled() const {
    // Relaxed is enough: callers only use this to skip work, and every
    // mutator re-checks under the registry lock.
    return enabled_.load(std::memory_order_relaxed);
  }
  void setEnabled(bool on);

  /// Pre-declare a histogram's bucket upper bounds (strictly increasing).
  /// observe() on an undefined histogram falls back to defaultBounds().
  void defineHistogram(const std::string& name, std::vector<double> bounds);

  void add(const std::string& name, double delta = 1.0);  // counter
  void set(const std::string& name, double value);        // gauge
  void observe(const std::string& name, double value);    // histogram

  /// Name-sorted dump of every series. Always available (even disabled —
  /// the dump is then whatever was recorded before disabling).
  MetricsSnapshot snapshot() const;
  /// Replace the registry contents with a journaled snapshot (resume path).
  /// The enabled flag is not touched.
  void restore(const MetricsSnapshot& snap);
  /// Drop every series; the enabled flag is not touched.
  void clear();

  /// CSV dump: name,kind,value,count,sum,min,max[,bucket columns as
  /// "le_<bound>=count" appended in a trailing free-form column].
  std::string toCsv() const;
  /// JSON dump (array of objects), for machine consumption.
  std::string toJson() const;

  /// Default histogram layout: decade buckets 1e-6 .. 1e6 — wide enough for
  /// both sub-millisecond phase timings and multi-hour tool charges.
  static std::vector<double> defaultBounds();
  /// log10-condition-number layout for GP Gram matrices (1 .. 1e16).
  static std::vector<double> conditionBounds();
  /// Small-integer layout (iteration counts, queue depths, batch sizes).
  static std::vector<double> countBounds();

 private:
  MetricPoint& slot(const std::string& name);  // created empty on first use
  MetricPoint& upsert(const std::string& name, MetricKind kind);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, MetricPoint> series_;  // keyed by MetricPoint::name
};

}  // namespace cmmfo::obs
