#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace cmmfo::obs {

/// Causal trace context: the trace a span belongs to and the span its
/// children parent to. A zero trace_id means "no ambient trace" (the
/// single-campaign CLI regime); campaign roots use span_id == trace_id.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// One completed span. Timestamps are microseconds relative to the tracer's
/// epoch (steady_clock at construction/reset), so traces from one process
/// are internally comparable but carry no wall-clock information.
struct TraceEvent {
  std::string name;        // e.g. "round", "gp_fit", "job", "flow_attempt"
  std::string cat;         // coarse category: "optimizer", "scheduler", ...
  std::uint64_t tid = 0;   // hashed thread id (stable within a process)
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  int round = -1;          // -1 = not applicable
  int fidelity = -1;       // -1 = not applicable
  std::int64_t id = -1;    // candidate/config id, job index, ... (-1 = n/a)
  int attempts = 0;        // retry count for scheduler jobs
  double value = 0.0;      // span-specific payload (peipv, seconds charged…)
  bool has_value = false;
  std::string outcome;     // "" | "ok" | "failed" | "degraded" | ...
  std::uint64_t trace_id = 0;        // causal context (0 = none)
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t link_trace_id = 0;   // cross-trace link: coalesce leader
  std::uint64_t link_span_id = 0;
};

class Tracer;

/// The ambient causal context of the calling thread (zero when none).
TraceContext currentContext();

/// RAII: install `ctx` as the calling thread's ambient context — a campaign
/// root on a driver thread, or a submit-time context re-installed on a
/// worker. No-op when the tracer is null/disabled or ctx is empty; spans
/// constructed underneath inherit the context as their parent.
class ContextGuard {
 public:
  ContextGuard(Tracer* tracer, TraceContext ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  std::size_t restore_depth_ = 0;
  bool pushed_ = false;
};

/// RAII span: samples the clock on construction and records the completed
/// event on destruction. When the tracer is disabled (or null) construction
/// is a cheap no-op — no clock read, no allocation. Active spans mint a
/// span_id, parent to the thread's ambient context, and become the ambient
/// context themselves until destruction.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* cat);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& round(int r) { ev_.round = r; return *this; }
  Span& fidelity(int f) { ev_.fidelity = f; return *this; }
  Span& id(std::int64_t i) { ev_.id = i; return *this; }
  Span& attempts(int a) { ev_.attempts = a; return *this; }
  Span& value(double v) { ev_.value = v; ev_.has_value = true; return *this; }
  Span& outcome(std::string o) { ev_.outcome = std::move(o); return *this; }
  /// Cross-trace link (e.g. a coalesced follower pointing at its leader).
  Span& link(std::uint64_t trace_id, std::uint64_t span_id) {
    ev_.link_trace_id = trace_id;
    ev_.link_span_id = span_id;
    return *this;
  }

  bool active() const { return tracer_ != nullptr; }
  std::uint64_t traceId() const { return ev_.trace_id; }
  std::uint64_t spanId() const { return ev_.span_id; }

 private:
  Tracer* tracer_ = nullptr;  // null when tracing is disabled
  std::chrono::steady_clock::time_point start_{};
  std::size_t restore_depth_ = 0;
  bool pushed_ = false;
  TraceEvent ev_;
};

/// Collects spans from any thread into a bounded in-memory ring buffer
/// (drop-oldest past `capacity()`, counted), dumped at run end as JSONL or
/// as a chrome://tracing JSON array — or streamed live to a rotating JSONL
/// file (`openStream`) for daemon runs. Disabled by default; while disabled
/// every record path is a no-op so the optimization loop pays only one
/// relaxed atomic load per would-be span.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  Tracer() = default;
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void setEnabled(bool on);

  void record(TraceEvent ev);
  std::size_t eventCount() const;
  std::vector<TraceEvent> events() const;
  /// Drop buffered events, reset the dropped counter, restart the epoch;
  /// enabled flag and stream untouched.
  void clear();

  /// Ring-buffer bound on the in-memory buffer (0 = unbounded). Shrinking
  /// below the current size drops the oldest events (counted).
  void setCapacity(std::size_t capacity);
  std::size_t capacity() const;
  /// Events dropped by the ring buffer since the last clear().
  std::uint64_t droppedCount() const;

  /// Stream every recorded event as one JSONL line to `path`, rotating to
  /// `path + ".1"` once the file exceeds `max_bytes`. The in-memory ring is
  /// still maintained for end-of-run dumps.
  bool openStream(const std::string& path,
                  std::size_t max_bytes = std::size_t{64} << 20);
  void closeStream();
  bool streaming() const;

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// One JSON object per line (the native dump format).
  std::string toJsonl() const;
  /// chrome://tracing / Perfetto "traceEvents" JSON ("X" complete events).
  std::string toChromeTrace() const;

 private:
  void rotateStreamLocked();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t dropped_ = 0;
  std::FILE* stream_ = nullptr;
  std::string stream_path_;
  std::size_t stream_max_bytes_ = 0;
  std::size_t stream_bytes_ = 0;
};

}  // namespace cmmfo::obs
