// Observability layer tests. The load-bearing property is the determinism
// invariant: tracing and metrics must never perturb the optimization — the
// seed-77 golden trajectory pinned in test_runtime.cpp must come out
// bit-for-bit identical with full instrumentation enabled, and the metrics
// dump must tie out EXACTLY (EXPECT_DOUBLE_EQ, not NEAR) with the
// scheduler's own accounting ledgers. All suites here are named Obs* so the
// TSan smoke (run_benches.sh --tsan-smoke) picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.h"
#include "core/checkpoint.h"
#include "core/optimizer.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "runtime/scheduler.h"
#include "util/json.h"

namespace cmmfo {
namespace {

using obs::MetricKind;
using obs::MetricPoint;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using sim::Fidelity;

// Tests share a process when the binary runs un-filtered, so every test
// that touches obs::global() wipes it on entry and on exit.
struct GlobalObsGuard {
  GlobalObsGuard() { reset(); }
  ~GlobalObsGuard() { reset(); }
  static void reset() {
    obs::tracer().setEnabled(false);
    obs::tracer().clear();
    obs::metrics().setEnabled(false);
    obs::metrics().clear();
  }
};

const MetricPoint* find(const MetricsSnapshot& snap, const std::string& name) {
  for (const MetricPoint& p : snap)
    if (p.name == name) return &p;
  return nullptr;
}

// ---------------------------------------------------------- MetricsUnit ----

TEST(ObsMetrics, DisabledMutatorsAreNoOps) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.add("c");
  reg.set("g", 3.0);
  reg.observe("h", 1.0);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(ObsMetrics, CounterGaugeHistogramSemantics) {
  MetricsRegistry reg;
  reg.setEnabled(true);
  reg.add("runs");
  reg.add("runs", 2.0);
  reg.set("depth", 5.0);
  reg.set("depth", 3.0);
  reg.defineHistogram("t", {1.0, 10.0, 100.0});
  reg.observe("t", 0.5);
  reg.observe("t", 10.0);   // boundary: counts in the <=10 bucket
  reg.observe("t", 1e6);    // overflow bucket

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Snapshot is name-sorted.
  EXPECT_EQ(snap[0].name, "depth");
  EXPECT_EQ(snap[1].name, "runs");
  EXPECT_EQ(snap[2].name, "t");

  const MetricPoint* runs = find(snap, "runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(runs->value, 3.0);
  EXPECT_EQ(runs->count, 2u);

  const MetricPoint* depth = find(snap, "depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(depth->value, 3.0);  // last set wins

  const MetricPoint* t = find(snap, "t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->kind, MetricKind::kHistogram);
  EXPECT_EQ(t->count, 3u);
  EXPECT_DOUBLE_EQ(t->sum, 0.5 + 10.0 + 1e6);
  EXPECT_DOUBLE_EQ(t->min, 0.5);
  EXPECT_DOUBLE_EQ(t->max, 1e6);
  ASSERT_EQ(t->bounds.size(), 3u);
  ASSERT_EQ(t->buckets.size(), 4u);
  EXPECT_EQ(t->buckets[0], 1u);  // 0.5 <= 1
  EXPECT_EQ(t->buckets[1], 1u);  // 10 <= 10
  EXPECT_EQ(t->buckets[2], 0u);
  EXPECT_EQ(t->buckets[3], 1u);  // 1e6 overflows past 100
}

TEST(ObsMetrics, RestoreRoundTripsSnapshotExactly) {
  MetricsRegistry reg;
  reg.setEnabled(true);
  reg.add("a", 0.1);
  reg.add("a", 0.2);  // 0.1 + 0.2 != 0.3: exercises exact double transport
  reg.set("b", 3062.9170931904364);
  reg.observe("c", 1e-7);
  reg.observe("c", 123.456);
  const MetricsSnapshot snap = reg.snapshot();

  MetricsRegistry other;
  other.setEnabled(true);
  other.add("stale", 9.0);  // must be dropped by restore
  other.restore(snap);
  EXPECT_EQ(other.snapshot(), snap);
}

TEST(ObsMetrics, CsvAndJsonDumpsCarryEverySeries) {
  MetricsRegistry reg;
  reg.setEnabled(true);
  reg.add("sched.tool_runs", 18.0);
  reg.set("sched.charged_seconds", 3062.9170931904364);
  reg.defineHistogram("phase.round.seconds", MetricsRegistry::defaultBounds());
  reg.observe("phase.round.seconds", 0.02);

  const std::string csv = reg.toCsv();
  EXPECT_NE(csv.find("name,kind,value,count,sum,min,max"), std::string::npos);
  EXPECT_NE(csv.find("sched.tool_runs"), std::string::npos);
  EXPECT_NE(csv.find("3062.9170931904364"), std::string::npos);
  EXPECT_NE(csv.find("le_"), std::string::npos);

  const std::string json = reg.toJson();
  EXPECT_NE(json.find("\"sched.charged_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"phase.round.seconds\""), std::string::npos);
}

TEST(ObsMetrics, FixedBucketLayoutsAreStrictlyIncreasing) {
  for (const auto& bounds :
       {MetricsRegistry::defaultBounds(), MetricsRegistry::conditionBounds(),
        MetricsRegistry::countBounds()}) {
    ASSERT_GE(bounds.size(), 2u);
    for (std::size_t i = 1; i < bounds.size(); ++i)
      EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// benchmark and method feed only the diagnostics manifest: the trace and
// metrics headers, which archived dumps and their readers already parse,
// must not carry them.
TEST(ObsRunMeta, HeadersOmitBenchmarkAndMethod) {
  obs::RunMeta meta;
  meta.git_sha = "0123abcd4567";
  meta.build_type = "Release";
  meta.tool = "cmmfo";
  meta.flags = "run --benchmark \"spmv_crs\"\t--seed 77";
  meta.benchmark = "spmv_crs";
  meta.method = "ours";
  meta.seed = 77;
  meta.has_seed = true;
  EXPECT_EQ(obs::metaJsonLine(meta),
            R"j({"type": "meta", "git_sha": "0123abcd4567", "build_type": "Release)j"
            R"j(", "tool": "cmmfo", "seed": 77, "flags": "run --benchmark \"spmv_c)j"
            R"j(rs\"\t--seed 77"})j" "\n");
  EXPECT_EQ(obs::metaCsvComment(meta),
            R"j(# meta git_sha=0123abcd4567 build_type=Release tool=cmmfo seed=77 )j"
            "flags=run --benchmark \"spmv_crs\"\t--seed 77" "\n");
}

// ------------------------------------------------------------ TraceUnit ----

TEST(ObsTrace, DisabledSpanRecordsNothing) {
  obs::Tracer tracer;
  {
    obs::Span s(tracer.enabled() ? &tracer : nullptr, "round", "optimizer");
    EXPECT_FALSE(s.active());
    s.round(3).value(1.0);
  }
  EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(ObsTrace, SpanRecordsFieldsAndDuration) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  {
    obs::Span s(&tracer, "job", "scheduler");
    EXPECT_TRUE(s.active());
    s.round(2).fidelity(1).id(42).attempts(3).value(7.5).outcome("ok");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  const obs::TraceEvent& ev = events[0];
  EXPECT_EQ(ev.name, "job");
  EXPECT_EQ(ev.cat, "scheduler");
  EXPECT_EQ(ev.round, 2);
  EXPECT_EQ(ev.fidelity, 1);
  EXPECT_EQ(ev.id, 42);
  EXPECT_EQ(ev.attempts, 3);
  EXPECT_TRUE(ev.has_value);
  EXPECT_DOUBLE_EQ(ev.value, 7.5);
  EXPECT_EQ(ev.outcome, "ok");
  EXPECT_GE(ev.start_us, 0);
  EXPECT_GE(ev.dur_us, 1000);

  const std::string jsonl = tracer.toJsonl();
  EXPECT_NE(jsonl.find("\"name\": \"job\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"outcome\": \"ok\""), std::string::npos);
  const std::string chrome = tracer.toChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ObsTrace, ScopedPhaseEmitsSpanAndHistogram) {
  GlobalObsGuard guard;
  obs::tracer().setEnabled(true);
  obs::metrics().setEnabled(true);
  { obs::ScopedPhase p("unit_test_phase", 4); }
  const auto events = obs::tracer().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit_test_phase");
  EXPECT_EQ(events[0].round, 4);
  const MetricsSnapshot snap = obs::metrics().snapshot();
  const MetricPoint* h = find(snap, "phase.unit_test_phase.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, MetricKind::kHistogram);
  EXPECT_EQ(h->count, 1u);
}

TEST(ObsTrace, ConcurrentSpansFromManyThreadsAllLand) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  constexpr int kThreads = 8, kSpansPer = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPer; ++i)
        obs::Span(&tracer, "worker_span", "test").id(t * kSpansPer + i);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.eventCount(),
            static_cast<std::size_t>(kThreads * kSpansPer));
}

// ------------------------------------------------ Causal trace context ----

TEST(ObsTrace, ContextGuardParentsSpansAndRestoresOnExit) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  const std::uint64_t root = 0x5EEDF00Dull;

  std::uint64_t outer_id = 0;
  {
    obs::ContextGuard guard(&tracer, obs::TraceContext{root, root});
    EXPECT_EQ(obs::currentContext().trace_id, root);
    EXPECT_EQ(obs::currentContext().span_id, root);
    {
      obs::Span outer(&tracer, "outer", "test");
      outer_id = outer.spanId();
      EXPECT_EQ(outer.traceId(), root);
      // The open span becomes the ambient context its children parent to.
      EXPECT_EQ(obs::currentContext().span_id, outer_id);
      obs::Span inner(&tracer, "inner", "test");
      EXPECT_EQ(inner.traceId(), root);
    }
    // Closing the spans restored the guard's context.
    EXPECT_EQ(obs::currentContext().span_id, root);
  }
  EXPECT_EQ(obs::currentContext().trace_id, 0u);  // guard popped on exit

  const auto events = tracer.events();  // inner closes (records) first
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  ASSERT_EQ(inner.name, "inner");
  ASSERT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.trace_id, root);
  // Campaign-root convention: a direct child of the root has
  // parent_span_id == trace_id.
  EXPECT_EQ(outer.parent_span_id, root);
  EXPECT_EQ(inner.trace_id, root);
  EXPECT_EQ(inner.parent_span_id, outer_id);
  EXPECT_NE(inner.span_id, outer.span_id);
  EXPECT_NE(inner.span_id, 0u);
}

TEST(ObsTrace, CapturedContextReinstallsAcrossThreads) {
  // Causality crosses threads by capturing currentContext() on one thread
  // and re-installing it on another with a ContextGuard; this pins that
  // mechanism in isolation.
  obs::Tracer tracer;
  tracer.setEnabled(true);
  const std::uint64_t root = 42ull;
  obs::TraceContext submit_ctx;
  std::uint64_t submit_span = 0;
  {
    obs::ContextGuard guard(&tracer, obs::TraceContext{root, root});
    obs::Span submit(&tracer, "submit", "test");
    submit_span = submit.spanId();
    submit_ctx = obs::currentContext();
  }
  EXPECT_EQ(submit_ctx.span_id, submit_span);

  std::thread worker([&tracer, submit_ctx] {
    EXPECT_EQ(obs::currentContext().trace_id, 0u);  // fresh thread: no ctx
    obs::ContextGuard guard(&tracer, submit_ctx);
    obs::Span(&tracer, "job", "test").outcome("ok");
  });
  worker.join();

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent& job = events[1];
  ASSERT_EQ(job.name, "job");
  EXPECT_EQ(job.trace_id, root);
  EXPECT_EQ(job.parent_span_id, submit_span);
}

TEST(ObsTrace, RingBufferDropsOldestAndCountsDrops) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  EXPECT_EQ(tracer.capacity(), obs::Tracer::kDefaultCapacity);
  tracer.setCapacity(8);
  for (int i = 0; i < 20; ++i) obs::Span(&tracer, "s", "test").id(i);
  EXPECT_EQ(tracer.eventCount(), 8u);
  EXPECT_EQ(tracer.droppedCount(), 12u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)  // oldest were dropped
    EXPECT_EQ(events[i].id, static_cast<std::int64_t>(12 + i));

  // Shrinking below the live size drops (and counts) the overflow too.
  tracer.setCapacity(3);
  EXPECT_EQ(tracer.eventCount(), 3u);
  EXPECT_EQ(tracer.droppedCount(), 17u);
  // clear() resets the drop counter with the buffer.
  tracer.clear();
  EXPECT_EQ(tracer.eventCount(), 0u);
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(ObsTrace, StreamingSinkWritesParseableJsonlAndRotates) {
  const std::string path = testing::TempDir() + "/cmmfo_obs_stream.jsonl";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());

  obs::Tracer tracer;
  tracer.setEnabled(true);
  ASSERT_TRUE(tracer.openStream(path, /*max_bytes=*/1024));
  EXPECT_TRUE(tracer.streaming());
  for (int i = 0; i < 40; ++i)
    obs::Span(&tracer, "streamed", "test").id(i).value(1.5).outcome("ok");
  tracer.closeStream();
  EXPECT_FALSE(tracer.streaming());

  // ~40 spans at ~100 bytes/line blow through the 1 KiB cap several times:
  // a rotated generation must exist alongside the live file, every line
  // must be well-formed JSON, and the stream's tail must reach the final
  // span (rotation drops a prefix, never the newest events).
  std::size_t lines = 0;
  std::int64_t last_id = -1;
  for (const std::string& file : {rotated, path}) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    std::string line;
    while (std::getline(in, line)) {
      ++lines;
      util::Json ev;
      ASSERT_TRUE(util::parseJson(line, &ev)) << line;
      EXPECT_EQ(ev.strOr("name", ""), "streamed");
      last_id = static_cast<std::int64_t>(ev.numOr("id", -1.0));
    }
  }
  EXPECT_GT(lines, 0u);
  EXPECT_LE(lines, 40u);
  EXPECT_EQ(last_id, 39);
  // The in-memory ring kept everything regardless of streaming.
  EXPECT_EQ(tracer.eventCount(), 40u);

  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

// Byte pin of the end-of-run dumps both tools write through obs::writeDump:
// the meta header, every optional span field in both trace formats and one
// series of each metric kind in CSV and JSON.
TEST(ObsDump, WriteDumpBytesArePinned) {
  GlobalObsGuard guard;
  obs::RunMeta meta;
  meta.git_sha = "0123abcd4567";
  meta.build_type = "Release";
  meta.tool = "cmmfo_server";
  meta.flags = "--stdio --metrics m.csv";
  obs::tracer().setEnabled(true);
  obs::TraceEvent a;
  a.name = "round";
  a.cat = "optimizer";
  a.tid = 7;
  a.start_us = 10;
  a.dur_us = 250;
  a.round = 3;
  a.value = 0.1;
  a.has_value = true;
  a.outcome = "ok";
  obs::tracer().record(a);
  obs::TraceEvent b;
  b.name = "job";
  b.cat = "scheduler";
  b.tid = 12345678901234567890ull;
  b.start_us = -5;
  b.trace_id = 99;
  b.span_id = 100;
  b.parent_span_id = 99;
  b.link_trace_id = 5;
  b.link_span_id = 6;
  b.fidelity = 2;
  b.id = 42;
  b.attempts = 3;
  b.outcome = "coalesced \"x\"";
  obs::tracer().record(b);
  obs::TraceEvent c;
  c.name = "bare";
  c.cat = "phase";
  obs::tracer().record(c);
  obs::metrics().setEnabled(true);
  obs::metrics().add("opt.rounds", 3.0);
  obs::metrics().set("sched.in_flight#campaign=a", 0.1);
  obs::metrics().defineHistogram("phase.gp_fit.seconds", {0.01, 0.1, 1.0});
  obs::metrics().observe("phase.gp_fit.seconds", 0.05);
  obs::metrics().observe("phase.gp_fit.seconds", 2.5);

  const auto dumped = [&](obs::Dump what, const std::string& name) {
    const std::string path = testing::TempDir() + "/cmmfo_obs_dump_" + name;
    EXPECT_TRUE(obs::writeDump(what, path, meta)) << path;
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
  };
  EXPECT_EQ(dumped(obs::Dump::kTrace, "trace.jsonl"),
            R"j({"type": "meta", "git_sha": "0123abcd4567", "build_type": "Release)j"
            R"j(", "tool": "cmmfo_server", "flags": "--stdio --metrics m.csv"})j" "\n"
            R"j({"name": "round", "cat": "optimizer", "tid": 7, "start_us": 10, "d)j"
            R"j(ur_us": 250, "round": 3, "value": 0.10000000000000001, "outcome": )j"
            R"j("ok"})j" "\n"
            R"j({"name": "job", "cat": "scheduler", "tid": 12345678901234567890, ")j"
            R"j(start_us": -5, "dur_us": 0, "trace_id": 99, "span_id": 100, "paren)j"
            R"j(t_span_id": 99, "link_trace_id": 5, "link_span_id": 6, "fidelity":)j"
            R"j( 2, "id": 42, "attempts": 3, "outcome": "coalesced \"x\""})j" "\n"
            R"j({"name": "bare", "cat": "phase", "tid": 0, "start_us": 0, "dur_us")j"
            R"j(: 0})j" "\n");
  EXPECT_EQ(dumped(obs::Dump::kChromeTrace, "chrome.json"),
            R"j({"traceEvents": [)j" "\n"
            R"j({"ph": "X", "pid": 1, "name": "round", "cat": "optimizer", "tid": )j"
            R"j(7, "ts": 10, "dur": 250, "args": {"round": 3, "value": 0.100000000)j"
            R"j(00000001, "outcome": "ok"}},)j" "\n"
            R"j({"ph": "X", "pid": 1, "name": "job", "cat": "scheduler", "tid": 78)j"
            R"j(90, "ts": -5, "dur": 0, "args": {"trace_id": 99, "span_id": 100, ")j"
            R"j(parent_span_id": 99, "link_trace_id": 5, "link_span_id": 6, "fidel)j"
            R"j(ity": 2, "id": 42, "attempts": 3, "outcome": "coalesced \"x\""}},)j" "\n"
            R"j({"ph": "X", "pid": 1, "name": "bare", "cat": "phase", "tid": 0, "t)j"
            R"j(s": 0, "dur": 0, "args": {}})j" "\n"
            R"j(]})j" "\n");
  EXPECT_EQ(dumped(obs::Dump::kMetrics, "metrics.csv"),
            R"j(# meta git_sha=0123abcd4567 build_type=Release tool=cmmfo_server f)j"
            R"j(lags=--stdio --metrics m.csv)j" "\n"
            R"j(name,kind,value,count,sum,min,max,buckets)j" "\n"
            R"j(opt.rounds,counter,3,1,0,0,0,)j" "\n"
            R"j(phase.gp_fit.seconds,histogram,0,2,2.5499999999999998,0.0500000000)j"
            R"j(00000003,2.5,le_0.01=0 le_0.10000000000000001=1 le_1=0 le_inf=1)j" "\n"
            R"j(sched.in_flight#campaign=a,gauge,0.10000000000000001,1,0,0,0,)j" "\n");
  EXPECT_EQ(dumped(obs::Dump::kMetrics, "metrics.json"),
            R"j({"type": "meta", "git_sha": "0123abcd4567", "build_type": "Release)j"
            R"j(", "tool": "cmmfo_server", "flags": "--stdio --metrics m.csv"})j" "\n"
            R"j([)j" "\n"
            R"j({"name": "opt.rounds", "kind": "counter", "value": 3, "count": 1, )j"
            R"j("sum": 0, "min": 0, "max": 0, "bounds": [], "buckets": []},)j" "\n"
            R"j({"name": "phase.gp_fit.seconds", "kind": "histogram", "value": 0, )j"
            R"j("count": 2, "sum": 2.5499999999999998, "min": 0.050000000000000003)j"
            R"j(, "max": 2.5, "bounds": [0.01,0.10000000000000001,1], "buckets": [)j"
            R"j(0,1,0,1]},)j" "\n"
            R"j({"name": "sched.in_flight#campaign=a", "kind": "gauge", "value": 0)j"
            R"j(.10000000000000001, "count": 1, "sum": 0, "min": 0, "max": 0, "bou)j"
            R"j(nds": [], "buckets": []})j" "\n"
            R"j(])j" "\n");
  EXPECT_FALSE(obs::writeDump(obs::Dump::kMetrics,
                              testing::TempDir() + "/no-such-dir/m.csv", meta));
}

// ----------------------------------------------- Prometheus exposition ----

// Strict text-format (0.0.4) validation of the scrape renderer: metric
// name charset, # TYPE before any sample of its family, bucket le ordering
// and count cumulativity, +Inf bucket == _count, _sum present, and the
// flat `#campaign=` registry suffix rendered as a real Prometheus label.
TEST(ObsPrometheus, ExpositionSurvivesStrictTextFormatValidation) {
  MetricsRegistry reg;
  reg.setEnabled(true);
  reg.add("server.rounds", 12.0);
  reg.set("sched.charged_seconds", 3062.9170931904364);
  reg.defineHistogram("slo.step_seconds", MetricsRegistry::defaultBounds());
  reg.observe("slo.step_seconds", 0.004);
  reg.observe("slo.step_seconds", 2.5);
  reg.defineHistogram("slo.step_seconds#campaign=camp-a",
                      MetricsRegistry::defaultBounds());
  reg.observe("slo.step_seconds#campaign=camp-a", 0.004);
  reg.set("weird name!", 1.0);  // sanitizer coverage

  const std::string text =
      obs::toPrometheusText(reg.snapshot(), /*trace_dropped=*/7);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');  // exposition must end in a newline

  const auto validName = [](const std::string& name) {
    if (name.empty()) return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      const bool digit = c >= '0' && c <= '9';
      if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) return false;
    }
    return true;
  };

  std::map<std::string, std::string> family_type;
  // Per (family | label-set without le): ordered (le, cumulative count).
  std::map<std::string, std::vector<std::pair<double, double>>> bucket_series;
  std::map<std::string, double> counts, sums;

  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string family, type;
      ASSERT_TRUE(static_cast<bool>(ls >> family >> type)) << line;
      EXPECT_TRUE(validName(family)) << family;
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      EXPECT_EQ(family_type.count(family), 0u)
          << "duplicate # TYPE for " << family;
      family_type[family] = type;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) continue;
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;

    // Sample line: name[{labels}] value
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, std::min(brace, space));
    EXPECT_TRUE(validName(name)) << name;

    std::string labels;
    std::size_t value_at = space + 1;
    if (brace != std::string::npos && brace < space) {
      const std::size_t close = line.find('}', brace);
      ASSERT_NE(close, std::string::npos) << line;
      labels = line.substr(brace + 1, close - brace - 1);
      ASSERT_LT(close + 1, line.size()) << line;
      ASSERT_EQ(line[close + 1], ' ') << line;
      value_at = close + 2;
    }
    const std::string value_text = line.substr(value_at);
    ASSERT_FALSE(value_text.empty()) << line;
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    ASSERT_EQ(*end, '\0') << line;

    // Histogram sub-series resolve to their base family; every sample must
    // appear AFTER its family's # TYPE line.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string base = name.substr(0, name.size() - s.size());
        const auto it = family_type.find(base);
        if (it != family_type.end() && it->second == "histogram") {
          family = base;
          break;
        }
      }
    }
    ASSERT_EQ(family_type.count(family), 1u)
        << "sample before its # TYPE line: " << line;

    if (family_type[family] == "histogram") {
      std::string series = family + "|";
      double le_val = 0.0;
      bool has_le = false;
      std::size_t pos = 0;
      while (pos < labels.size()) {
        auto comma = labels.find(',', pos);
        if (comma == std::string::npos) comma = labels.size();
        const std::string pair = labels.substr(pos, comma - pos);
        if (pair.rfind("le=\"", 0) == 0) {
          ASSERT_EQ(pair.back(), '"') << line;
          const std::string raw = pair.substr(4, pair.size() - 5);
          has_le = true;
          le_val = raw == "+Inf" ? std::numeric_limits<double>::infinity()
                                 : std::strtod(raw.c_str(), nullptr);
        } else {
          series += pair + ";";
        }
        pos = comma + 1;
      }
      if (name == family + "_bucket") {
        ASSERT_TRUE(has_le) << line;
        bucket_series[series].emplace_back(le_val, value);
      } else if (name == family + "_count") {
        counts[series] = value;
      } else if (name == family + "_sum") {
        sums[series] = value;
      } else {
        ADD_FAILURE() << "bare sample of a histogram family: " << line;
      }
    }
  }

  // Histogram integrity: le strictly ascending, counts cumulative, +Inf
  // bucket last and equal to _count, _sum present — per label set.
  ASSERT_EQ(bucket_series.size(), 2u);  // unlabeled + campaign-labeled
  for (const auto& [series, bs] : bucket_series) {
    ASSERT_GE(bs.size(), 2u) << series;
    for (std::size_t i = 1; i < bs.size(); ++i) {
      EXPECT_LT(bs[i - 1].first, bs[i].first) << series;
      EXPECT_LE(bs[i - 1].second, bs[i].second) << series;
    }
    EXPECT_TRUE(std::isinf(bs.back().first)) << series;
    ASSERT_EQ(counts.count(series), 1u) << series;
    ASSERT_EQ(sums.count(series), 1u) << series;
    EXPECT_DOUBLE_EQ(bs.back().second, counts[series]) << series;
  }

  // The `#campaign=` suffix became a real label on every sub-series.
  EXPECT_NE(
      text.find("cmmfo_slo_step_seconds_bucket{campaign=\"camp-a\",le=\""),
      std::string::npos);
  EXPECT_NE(text.find("cmmfo_slo_step_seconds_sum{campaign=\"camp-a\"} "),
            std::string::npos);
  // Counters take the _total suffix; the drop counter is always exported.
  EXPECT_NE(text.find("cmmfo_server_rounds_total "), std::string::npos);
  EXPECT_NE(text.find("cmmfo_trace_dropped_total 7\n"), std::string::npos);
  // Illegal name characters were rewritten.
  EXPECT_NE(text.find("cmmfo_weird_name_ "), std::string::npos);
}

// --------------------------------------------------- Golden invariance ----

struct Fixture {
  Fixture()
      : bm(bench_suite::makeSpmvCrs()),
        space(hls::DesignSpace::buildPruned(bm.kernel, bm.spec)),
        sim(bm.kernel, sim::DeviceModel::virtex7Vc707(), bm.sim_params, 42) {}
  bench_suite::Benchmark bm;
  hls::DesignSpace space;
  sim::FpgaToolSim sim;
};

core::OptimizerOptions fastOpts() {
  core::OptimizerOptions o;
  o.n_iter = 10;
  o.mc_samples = 16;
  o.max_candidates = 60;
  o.refit_every = 5;
  o.surrogate.mtgp.mle_restarts = 0;
  o.surrogate.mtgp.max_mle_iters = 25;
  o.surrogate.gp.mle_restarts = 0;
  o.surrogate.gp.max_mle_iters = 25;
  return o;
}

// The same seed-77 trajectory test_runtime.cpp pins with observability off,
// re-run here with tracer AND metrics fully on. Instrumentation must be
// invisible to the algorithm: identical picks, identical charged seconds to
// the last bit — and the metrics ledger must tie out exactly against the
// run's own result accounting.
TEST(ObsInvariance, GoldenTrajectoryIdenticalWithFullInstrumentationOn) {
  GlobalObsGuard guard;
  obs::tracer().setEnabled(true);
  obs::metrics().setEnabled(true);

  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.seed = 77;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();

  const std::vector<std::pair<std::size_t, Fidelity>> golden = {
      {275, Fidelity::kImpl}, {184, Fidelity::kImpl}, {132, Fidelity::kImpl},
      {228, Fidelity::kSyn},  {20, Fidelity::kSyn},   {89, Fidelity::kHls},
      {194, Fidelity::kHls},  {57, Fidelity::kHls},   {75, Fidelity::kHls},
      {35, Fidelity::kHls},   {3, Fidelity::kHls},    {0, Fidelity::kHls},
      {7, Fidelity::kHls},    {5, Fidelity::kHls},    {17, Fidelity::kHls},
      {52, Fidelity::kHls},   {1, Fidelity::kHls},    {15, Fidelity::kHls},
  };
  ASSERT_EQ(res.cs.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(res.cs[i].config, golden[i].first) << "at index " << i;
    EXPECT_EQ(res.cs[i].fidelity, golden[i].second) << "at index " << i;
  }
  EXPECT_DOUBLE_EQ(res.tool_seconds, 3062.9170931904364);
  EXPECT_EQ(res.tool_runs, 18);
  EXPECT_DOUBLE_EQ(res.wall_seconds, res.tool_seconds);
  EXPECT_EQ(res.cache_hits, 0);

  // ---- Exact ledger tie-out: metrics vs the run's own accounting. ----
  const MetricsSnapshot snap = obs::metrics().snapshot();

  const MetricPoint* charged = find(snap, "sched.charged_seconds");
  ASSERT_NE(charged, nullptr);
  EXPECT_EQ(charged->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(charged->value, res.tool_seconds);

  const MetricPoint* wall = find(snap, "sched.wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->value, res.wall_seconds);

  const MetricPoint* runs = find(snap, "sched.tool_runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_DOUBLE_EQ(runs->value, 18.0);

  const MetricPoint* hits = find(snap, "sched.cache_hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_DOUBLE_EQ(hits->value, 0.0);

  // Worker-side counter: one flow attempt per tool run (no faults here).
  const MetricPoint* attempts = find(snap, "sim.flow_attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(attempts->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(attempts->value, static_cast<double>(res.attempts));
  EXPECT_DOUBLE_EQ(attempts->value, 18.0);

  const MetricPoint* completed = find(snap, "sim.attempt_status.completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_DOUBLE_EQ(completed->value, 18.0);

  // Per-fidelity PEIPV histograms cover the BO picks (the golden run makes
  // all 10 acquisition picks at the HLS fidelity; the impl/syn entries in
  // the trajectory are the initial design, which has no PEIPV).
  const MetricPoint* p_hls = find(snap, "acq.peipv.hls");
  ASSERT_NE(p_hls, nullptr);
  EXPECT_EQ(p_hls->count, 10u);

  // Phase profiling and progression gauges exist.
  EXPECT_NE(find(snap, "phase.round.seconds"), nullptr);
  EXPECT_NE(find(snap, "phase.gp_fit.seconds"), nullptr);
  EXPECT_NE(find(snap, "phase.acquisition.seconds"), nullptr);
  EXPECT_NE(find(snap, "phase.evaluate.seconds"), nullptr);
  EXPECT_NE(find(snap, "gp.fit_iters"), nullptr);
  EXPECT_NE(find(snap, "gp.cond_log10"), nullptr);
  const MetricPoint* hv = find(snap, "opt.hypervolume.impl");
  ASSERT_NE(hv, nullptr);
  EXPECT_GT(hv->value, 0.0);

  // The trace saw the whole run: rounds, GP fits, picks, jobs, attempts.
  const auto events = obs::tracer().events();
  ASSERT_FALSE(events.empty());
  const auto count = [&events](const char* name) {
    return std::count_if(events.begin(), events.end(),
                         [name](const obs::TraceEvent& e) {
                           return e.name == name;
                         });
  };
  EXPECT_EQ(count("round"), 10);
  EXPECT_EQ(count("acq_pick"), 10);  // one BO pick per round
  EXPECT_EQ(count("job"), 18);       // 8 initial designs + 10 picks
  EXPECT_EQ(count("flow_attempt"), 18);
  EXPECT_GE(count("gp_fit_level"), 3);
}

// ------------------------------------------------- Checkpoint round-trip ----

TEST(ObsCheckpoint, MetricsLedgerSurvivesJournalRoundTripExactly) {
  MetricsRegistry reg;
  reg.setEnabled(true);
  reg.add("sim.flow_attempts", 18.0);
  reg.set("sched.charged_seconds", 3062.9170931904364);
  reg.set("tiny", 4.9406564584124654e-324);  // denormal min: worst case
  reg.defineHistogram("gp.cond_log10", MetricsRegistry::conditionBounds());
  reg.observe("gp.cond_log10", 3.7);
  reg.observe("gp.cond_log10", 12.1);

  core::CheckpointState st;
  st.fingerprint = 0xDEADBEEF;
  st.metrics = reg.snapshot();

  core::CheckpointState back;
  std::string err;
  ASSERT_TRUE(core::parseCheckpoint(core::serializeCheckpoint(st), &back,
                                    &err))
      << err;
  EXPECT_EQ(back.metrics, st.metrics);

  // Restoring into a registry with stale content reproduces the snapshot.
  MetricsRegistry resumed;
  resumed.setEnabled(true);
  resumed.add("leftover", 1.0);
  resumed.restore(back.metrics);
  EXPECT_EQ(resumed.snapshot(), st.metrics);
}

TEST(ObsCheckpoint, JournalsWithoutMetricsKeyStillLoad) {
  // Version-1 journals predating the metrics ledger have no "metrics" key;
  // the parser must treat it as optional.
  core::CheckpointState st;
  std::string text = core::serializeCheckpoint(st);
  const auto pos = text.find("\"metrics\"");
  ASSERT_NE(pos, std::string::npos);
  // Splice the key out: find the preceding comma and the closing ']'.
  const auto comma = text.rfind(',', pos);
  const auto close = text.find(']', pos);
  ASSERT_NE(comma, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  text.erase(comma, close - comma + 1);

  core::CheckpointState back;
  std::string err;
  EXPECT_TRUE(core::parseCheckpoint(text, &back, &err)) << err;
  EXPECT_TRUE(back.metrics.empty());
}

// Byte pin of a journal carrying both telemetry keys, which resumed runs
// read back: `metrics` (one series per kind) and `diag` (aggregates,
// counters and an escaped warning).
TEST(ObsCheckpoint, SerializedMetricsAndDiagKeysArePinned) {
  core::CheckpointState st;
  MetricsRegistry reg;
  reg.setEnabled(true);
  reg.add("opt.rounds", 3.0);
  reg.add("opt.rounds");
  reg.set("sched.in_flight#campaign=a", 0.1);
  reg.defineHistogram("phase.gp_fit.seconds", {0.01, 0.1, 1.0});
  reg.observe("phase.gp_fit.seconds", 0.05);
  reg.observe("phase.gp_fit.seconds", 2.5);
  st.metrics = reg.snapshot();
  st.diag.agg[1][2] = {4, 3, 1.0 / 3.0, -0.1, 2.2};
  st.diag.agg[2][0].n = 1;
  st.diag.agg[2][0].nlpd_sum = 1e-300;
  st.diag.rounds = 5;
  st.diag.samples = 7;
  st.diag.decisions = 6;
  obs::HealthWarning w;
  w.kind = obs::HealthKind::kRetryStorm;
  w.round = 4;
  w.fidelity = 2;
  w.value = 3.0;
  w.threshold = 2.0;
  w.message = "job \"7\" burned\nits retries";
  st.diag.warnings.push_back(w);
  st.has_diag = true;

  const std::string text = core::serializeCheckpoint(st);
  EXPECT_EQ(text,
            R"j({)j" "\n"
            R"j("version": 1,)j" "\n"
            R"j("fingerprint": "0",)j" "\n"
            R"j("next_round": 0,)j" "\n"
            R"j("t": 0,)j" "\n"
            R"j("rng": {"s": ["0","0","0","0"], "has_cached_normal": false, "cache)j"
            R"j(d_normal": 0},)j" "\n"
            R"j("data": [)j" "\n"
            R"j({"configs": [], "y": []},)j" "\n"
            R"j({"configs": [], "y": []},)j" "\n"
            R"j({"configs": [], "y": []}],)j" "\n"
            R"j("cs": [],)j" "\n"
            R"j("iterations": [],)j" "\n"
            R"j("picks_per_fidelity": [0,0,0],)j" "\n"
            R"j("totals": {"charged_seconds": 0, "wall_seconds": 0, "tool_runs": 0)j"
            R"j(, "cache_hits": 0, "attempts": 0, "transient_failures": 0, "timeou)j"
            R"j(ts": 0, "persistent_failures": 0, "degraded_jobs": 0, "retry_secon)j"
            R"j(ds_wasted": 0, "backoff_seconds": 0},)j" "\n"
            R"j("sim_tool_seconds": 0,)j" "\n"
            R"j("cache": [],)j" "\n"
            R"j("cache_hits": "0",)j" "\n"
            R"j("cache_misses": "0",)j" "\n"
            R"j("surrogate_hypers": [],)j" "\n"
            R"j("surrogate_base": [],)j" "\n"
            R"j("surrogate_mle_streak": [],)j" "\n"
            R"j("surrogate_fallback_n": [],)j" "\n"
            R"j("metrics": [)j" "\n"
            R"j({"name": "opt.rounds", "kind": 0, "value": 4, "count": "2", "sum":)j"
            R"j( 0, "min": 0, "max": 0, "bounds": [], "buckets": []},)j" "\n"
            R"j({"name": "phase.gp_fit.seconds", "kind": 2, "value": 0, "count": ")j"
            R"j(2", "sum": 2.5499999999999998, "min": 0.050000000000000003, "max":)j"
            R"j( 2.5, "bounds": [0.01,0.10000000000000001,1], "buckets": ["0","1",)j"
            R"j("0","1"]},)j" "\n"
            R"j({"name": "sched.in_flight#campaign=a", "kind": 1, "value": 0.10000)j"
            R"j(000000000001, "count": "1", "sum": 0, "min": 0, "max": 0, "bounds")j"
            R"j(: [], "buckets": []}],)j" "\n"
            R"j("diag": {"agg": [[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]],[[0,0,0,0,0)j"
            R"j(],[0,0,0,0,0],[4,3,0.33333333333333331,-0.10000000000000001,2.2000)j"
            R"j(000000000002]],[[1,0,1e-300,0,0],[0,0,0,0,0],[0,0,0,0,0]]], "round)j"
            R"j(s": 5, "samples": 7, "decisions": 6, "warnings": [)j" "\n"
            R"j({"kind": 5, "round": 4, "fidelity": 2, "value": 3, "threshold": 2,)j"
            R"j( "message": "job \"7\" burned\nits retries"}]})j" "\n"
            R"j(})j" "\n");
  core::CheckpointState back;
  std::string err;
  ASSERT_TRUE(core::parseCheckpoint(text, &back, &err)) << err;
  EXPECT_EQ(back.metrics, st.metrics);
  EXPECT_TRUE(back.diag == st.diag);
}

// The async pipeline journals the metrics ledger with every checkpoint; a
// preempted campaign resumed from disk must (1) round-trip the histogram
// state bit-for-bit through the journal and (2) continue accumulating onto
// the restored ledger, so the deterministic series finish exactly where an
// uninterrupted instrumented run finishes.
TEST(ObsCheckpoint, AsyncResumeRestoresAndContinuesHistogramLedger) {
  const std::string path =
      testing::TempDir() + "/cmmfo_obs_async_resume.json";
  std::remove(path.c_str());

  core::OptimizerOptions o = fastOpts();
  o.async = true;
  o.n_workers = 4;
  o.seed = 77;

  // Golden: one uninterrupted, fully instrumented async run.
  GlobalObsGuard guard;
  obs::metrics().setEnabled(true);
  Fixture f1;
  core::CorrelatedMfMoboOptimizer full(f1.space, f1.sim, o);
  const auto golden = full.run();
  const MetricsSnapshot golden_snap = obs::metrics().snapshot();

  // Preempted process: max_rounds mimics a kill with work in flight.
  GlobalObsGuard::reset();
  obs::metrics().setEnabled(true);
  Fixture f2;
  core::OptimizerOptions o_kill = o;
  o_kill.checkpoint_path = path;
  o_kill.max_rounds = 5;
  core::CorrelatedMfMoboOptimizer killed(f2.space, f2.sim, o_kill);
  (void)killed.run();

  // The journal carries live histogram state that restores bit-for-bit
  // into a fresh registry.
  core::CheckpointState st;
  std::string err;
  ASSERT_TRUE(core::loadCheckpointAny(path, &st, &err)) << err;
  ASSERT_FALSE(st.metrics.empty());
  EXPECT_TRUE(std::any_of(st.metrics.begin(), st.metrics.end(),
                          [](const MetricPoint& p) {
                            return p.kind == MetricKind::kHistogram &&
                                   p.count > 0;
                          }));
  MetricsRegistry fresh;
  fresh.setEnabled(true);
  fresh.restore(st.metrics);
  EXPECT_EQ(fresh.snapshot(), st.metrics);

  // Resume: pre-existing registry content is wiped by the restore and the
  // continued run lands the deterministic series on the uninterrupted
  // run's exact values.
  GlobalObsGuard::reset();
  obs::metrics().setEnabled(true);
  obs::metrics().add("stale.junk", 7.0);
  Fixture f3;
  core::OptimizerOptions o_resume = o;
  o_resume.checkpoint_path = path;
  o_resume.resume = true;
  core::CorrelatedMfMoboOptimizer resumed(f3.space, f3.sim, o_resume);
  const auto finished = resumed.run();
  EXPECT_TRUE(finished.resumed);
  EXPECT_DOUBLE_EQ(finished.tool_seconds, golden.tool_seconds);

  const MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_EQ(find(snap, "stale.junk"), nullptr);
  for (const char* name : {"sched.charged_seconds", "sched.wall_seconds",
                           "sched.cache_hits", "sched.tool_runs"}) {
    const MetricPoint* got = find(snap, name);
    const MetricPoint* want = find(golden_snap, name);
    ASSERT_NE(got, nullptr) << name;
    ASSERT_NE(want, nullptr) << name;
    EXPECT_DOUBLE_EQ(got->value, want->value) << name;
  }
  // The acquisition histograms observe deterministic PEIPV values in
  // deterministic pick order: restored + continued must equal the golden
  // run POINT-for-point (count, sum, min, max, every bucket).
  int peipv_series = 0;
  for (const MetricPoint& want : golden_snap) {
    if (want.name.rfind("acq.peipv.", 0) != 0) continue;
    ++peipv_series;
    const MetricPoint* got = find(snap, want.name);
    ASSERT_NE(got, nullptr) << want.name;
    EXPECT_EQ(*got, want) << want.name;
  }
  EXPECT_GE(peipv_series, 1);

  std::remove(path.c_str());
}

// ------------------------------------------- Concurrent observer (TSan) ----

// An observer thread hammers totals()/metrics snapshots while runBatch()
// executes faulty jobs. Under TSan this proves the stats mutex covers every
// ledger access; the assertions prove snapshots are never torn (wasted
// retries can never exceed charged seconds, neither within ONE consistent
// snapshot nor in the delta between two).
TEST(ObsScheduler, ConcurrentStatsSnapshotsAreNeverTorn) {
  GlobalObsGuard guard;
  obs::metrics().setEnabled(true);

  Fixture f;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.3;
  f.sim.setFaultParams(faults);

  runtime::EvalCache cache;
  runtime::RetryPolicy policy;
  policy.max_attempts = 3;
  runtime::ToolScheduler sched(f.space, f.sim, cache, /*n_workers=*/4,
                               policy);

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    runtime::SchedulerStats prev;
    while (!stop.load()) {
      const runtime::SchedulerStats t = sched.totals();
      EXPECT_LE(t.retry_seconds_wasted, t.charged_seconds + 1e-9);
      EXPECT_GE(t.attempts, t.tool_runs);
      EXPECT_LE(t.retry_seconds_wasted - prev.retry_seconds_wasted,
                t.charged_seconds - prev.charged_seconds + 1e-9);
      EXPECT_GE(t.attempts, prev.attempts);
      prev = t;
      (void)obs::metrics().snapshot();
    }
  });

  for (int round = 0; round < 4; ++round) {
    std::vector<runtime::EvalJob> jobs;
    for (std::size_t c = 0; c < 12; ++c)
      jobs.push_back({(round * 12 + c) % f.space.size(), Fidelity::kHls});
    const auto results = sched.runBatch(jobs);
    EXPECT_EQ(results.size(), jobs.size());
  }
  stop.store(true);
  observer.join();

  // After quiescence the gauges equal the ledger exactly.
  const runtime::SchedulerStats t = sched.totals();
  const MetricsSnapshot snap = obs::metrics().snapshot();
  const MetricPoint* charged = find(snap, "sched.charged_seconds");
  ASSERT_NE(charged, nullptr);
  EXPECT_DOUBLE_EQ(charged->value, t.charged_seconds);
  const MetricPoint* attempts = find(snap, "sched.attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_DOUBLE_EQ(attempts->value, static_cast<double>(t.attempts));
}

}  // namespace
}  // namespace cmmfo
