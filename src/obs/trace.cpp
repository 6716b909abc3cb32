#include "obs/trace.h"

#include <cstdio>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.h"

namespace cmmfo::obs {

namespace {

using util::putDouble;
using util::putString;
using util::putU64Bare;

std::uint64_t thisThreadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

void putI64(std::string& out, std::int64_t v) {
  util::putInt(out, static_cast<long long>(v));
}

// Span ids are minted from a process-wide relaxed counter: no RNG, no
// syscalls, so minting can never perturb the optimization trajectory.
std::atomic<std::uint64_t> g_next_span_id{1};

std::uint64_t nextSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

// Ambient causal context per thread. Guards/spans remember the depth they
// saw at construction and restore it on destruction, so even a non-LIFO
// teardown order converges back to a consistent stack.
thread_local std::vector<TraceContext> t_context_stack;

// The optional span fields, in schema order, as `"key": value` members;
// `first` is true when no member precedes them in the enclosing object.
// Shared by the JSONL line and the chrome://tracing "args" object.
void putSpanFields(std::string& out, const TraceEvent& e, bool first) {
  const auto key = [&](const char* k) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += k;
    out += "\": ";
  };
  if (e.trace_id != 0) { key("trace_id"); putU64Bare(out, e.trace_id); }
  if (e.span_id != 0) { key("span_id"); putU64Bare(out, e.span_id); }
  if (e.parent_span_id != 0) {
    key("parent_span_id");
    putU64Bare(out, e.parent_span_id);
  }
  if (e.link_span_id != 0) {
    key("link_trace_id");
    putU64Bare(out, e.link_trace_id);
    key("link_span_id");
    putU64Bare(out, e.link_span_id);
  }
  if (e.round >= 0) { key("round"); putI64(out, e.round); }
  if (e.fidelity >= 0) { key("fidelity"); putI64(out, e.fidelity); }
  if (e.id >= 0) { key("id"); putI64(out, e.id); }
  if (e.attempts > 0) { key("attempts"); putI64(out, e.attempts); }
  if (e.has_value) { key("value"); putDouble(out, e.value); }
  if (!e.outcome.empty()) { key("outcome"); putString(out, e.outcome); }
}

void appendJsonlLine(std::string& out, const TraceEvent& e) {
  out += "{\"name\": ";
  putString(out, e.name);
  out += ", \"cat\": ";
  putString(out, e.cat);
  out += ", \"tid\": ";
  putU64Bare(out, e.tid);
  out += ", \"start_us\": ";
  putI64(out, e.start_us);
  out += ", \"dur_us\": ";
  putI64(out, e.dur_us);
  putSpanFields(out, e, false);
  out += "}\n";
}

}  // namespace

TraceContext currentContext() {
  if (t_context_stack.empty()) return {};
  return t_context_stack.back();
}

ContextGuard::ContextGuard(Tracer* tracer, TraceContext ctx) {
  if (tracer == nullptr || !tracer->enabled()) return;
  if (ctx.trace_id == 0 && ctx.span_id == 0) return;
  restore_depth_ = t_context_stack.size();
  t_context_stack.push_back(ctx);
  pushed_ = true;
}

ContextGuard::~ContextGuard() {
  if (pushed_ && t_context_stack.size() > restore_depth_)
    t_context_stack.resize(restore_depth_);
}

Span::Span(Tracer* tracer, const char* name, const char* cat) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  start_ = std::chrono::steady_clock::now();
  ev_.name = name;
  ev_.cat = cat;
  ev_.tid = thisThreadId();
  const TraceContext parent = currentContext();
  ev_.trace_id = parent.trace_id;
  ev_.parent_span_id = parent.span_id;
  ev_.span_id = nextSpanId();
  restore_depth_ = t_context_stack.size();
  t_context_stack.push_back({ev_.trace_id, ev_.span_id});
  pushed_ = true;
}

Span::~Span() {
  if (pushed_ && t_context_stack.size() > restore_depth_)
    t_context_stack.resize(restore_depth_);
  if (tracer_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  ev_.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                     start_ - tracer_->epoch())
                     .count();
  ev_.dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count();
  tracer_->record(std::move(ev_));
}

Tracer::~Tracer() { closeStream(); }

void Tracer::setEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::record(TraceEvent ev) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_ != nullptr) {
    std::string line;
    appendJsonlLine(line, ev);
    std::fwrite(line.data(), 1, line.size(), stream_);
    stream_bytes_ += line.size();
    if (stream_max_bytes_ != 0 && stream_bytes_ >= stream_max_bytes_)
      rotateStreamLocked();
  }
  if (capacity_ != 0 && events_.size() >= capacity_) {
    const std::size_t excess = events_.size() - capacity_ + 1;
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(excess));
    dropped_ += excess;
  }
  events_.push_back(std::move(ev));
}

std::size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceEvent>(events_.begin(), events_.end());
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

void Tracer::setCapacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  if (capacity_ != 0 && events_.size() > capacity_) {
    const std::size_t excess = events_.size() - capacity_;
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(excess));
    dropped_ += excess;
  }
}

std::size_t Tracer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::uint64_t Tracer::droppedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Tracer::openStream(const std::string& path, std::size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_ != nullptr) {
    std::fclose(stream_);
    stream_ = nullptr;
  }
  stream_ = std::fopen(path.c_str(), "w");
  if (stream_ == nullptr) return false;
  stream_path_ = path;
  stream_max_bytes_ = max_bytes;
  stream_bytes_ = 0;
  return true;
}

void Tracer::closeStream() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_ != nullptr) {
    std::fflush(stream_);
    std::fclose(stream_);
    stream_ = nullptr;
  }
}

bool Tracer::streaming() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stream_ != nullptr;
}

// Caller holds mu_.
void Tracer::rotateStreamLocked() {
  std::fflush(stream_);
  std::fclose(stream_);
  const std::string rotated = stream_path_ + ".1";
  std::remove(rotated.c_str());
  std::rename(stream_path_.c_str(), rotated.c_str());
  stream_ = std::fopen(stream_path_.c_str(), "w");
  stream_bytes_ = 0;
}

std::string Tracer::toJsonl() const {
  const std::vector<TraceEvent> evs = events();
  std::string out;
  for (const TraceEvent& e : evs) appendJsonlLine(out, e);
  return out;
}

std::string Tracer::toChromeTrace() const {
  const std::vector<TraceEvent> evs = events();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : evs) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"ph\": \"X\", \"pid\": 1, \"name\": ";
    putString(out, e.name);
    out += ", \"cat\": ";
    putString(out, e.cat);
    out += ", \"tid\": ";
    // chrome://tracing wants small tids; fold the hash to keep lanes stable.
    putU64Bare(out, e.tid % 10000);
    out += ", \"ts\": ";
    putI64(out, e.start_us);
    out += ", \"dur\": ";
    putI64(out, e.dur_us);
    out += ", \"args\": {";
    putSpanFields(out, e, true);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace cmmfo::obs
