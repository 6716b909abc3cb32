// End-to-end benchmark: one process, one workload, one seed.
//
//   perfbench --workload paper_sync|async_scan|fleet --seed N
//             --seconds S --trace 0|1 [--spans FILE] [--smoke]
//             [--perturb-fingerprint]
//
// It uses only the library's public entry points
// (exp::BenchmarkContext, core::CampaignStepper, the server's handleLine /
// list / drain, core::loadCheckpointAny, obs::metrics().snapshot()) and
// prints ONE JSON record on stdout: every metric with its unit, sample
// count and spread, the correctness verdict and the run's provenance.
// perfbench/run.py builds this binary, runs it and reduces the record to
// the benchmark's result line.
//
// A run executes a fixed plan of units sized by --seconds: distinct
// campaigns (or fleets) on parallel lanes, one row at a time, plus a repeat
// of unit 0. Before the first row and after every row it sets the workload
// up a few times; setup_s is the median of all those set-ups, which sample
// the host over the whole run rather than over its first seconds. Every
// execution of a unit must yield the same trajectory fingerprint. With --trace 1 one row of
// units runs untraced and the others traced: the traced ones enable the
// program's obs layer and feed the per-layer metrics, the same units run
// untraced give the tracing overhead, and the benchmark's own spans go to
// --spans.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.h"
#include "core/campaign_stepper.h"
#include "core/checkpoint.h"
#include "exp/harness.h"
#include "obs/obs.h"
#include "obs/run_meta.h"
#include "server/server.h"
#include "util/json.h"

using namespace cmmfo;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ options ----

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool perturb = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_sync|async_scan|fleet --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--smoke] [--perturb-fingerprint]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--spans") a.spans_path = val();
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--perturb-fingerprint") a.perturb = true;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload != "paper_sync" && a.workload != "async_scan" &&
      a.workload != "fleet")
    usage("unknown workload");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

// -------------------------------------------------------------- spans ----

/// The benchmark's own spans around every public call it makes. Kept in
/// memory and written as JSONL at the end of a traced run; a campaign's
/// spans share its trace id, and parents link spans into a tree.
struct SpanRec {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanLog {
 public:
  bool enabled = false;

  std::uint64_t newId() { return next_id_.fetch_add(1); }
  double nowUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  void add(std::string name, std::uint64_t trace_id, std::uint64_t span_id,
           std::uint64_t parent_id, Clock::time_point start,
           Clock::time_point end) {
    if (!enabled) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(name), trace_id, span_id, parent_id,
                      nowUs(start), nowUs(end)});
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path);
    if (!out) return false;
    char buf[128];
    for (const SpanRec& s : spans_) {
      std::string line = "{\"name\":";
      util::putString(line, s.name);
      std::snprintf(buf, sizeof buf,
                    ",\"trace_id\":%llu,\"span_id\":%llu,\"parent_id\":%llu,"
                    "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                    static_cast<unsigned long long>(s.trace_id),
                    static_cast<unsigned long long>(s.span_id),
                    static_cast<unsigned long long>(s.parent_id), s.start_us,
                    s.end_us);
      line += buf;
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

SpanLog g_spans;

/// RAII span in the benchmark's own code.
class BenchSpan {
 public:
  BenchSpan(const char* name, std::uint64_t trace_id, std::uint64_t parent)
      : name_(name), trace_id_(trace_id), parent_(parent),
        id_(g_spans.enabled ? g_spans.newId() : 0), start_(Clock::now()) {}
  ~BenchSpan() {
    g_spans.add(name_, trace_id_, id_, parent_, start_, Clock::now());
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t trace_id_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
};

// -------------------------------------------------------- fingerprint ----

/// FNV-1a hashing for trajectory fingerprints.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A campaign's CS as its (config, fidelity) sequence, plus the exact bits
/// of its charged tool-seconds when `with_charge` is set.
std::uint64_t fingerprintOf(const core::OptimizeResult& r, bool with_charge) {
  Fnv f;
  for (const core::SampleRecord& s : r.cs) {
    f.u64(s.config);
    f.u64(static_cast<std::uint64_t>(s.fidelity));
  }
  if (with_charge) f.f64(r.tool_seconds);
  return f.value();
}

// ---------------------------------------------------------- workloads ----

/// Campaign seeds: workload seed 0 gives 100, 101, ... (the fleet's
/// documented 100+i); each further workload seed shifts the block by 1000.
std::uint64_t campaignSeed(std::uint64_t wseed, int i) {
  return 100 + static_cast<std::uint64_t>(i) + 1000 * wseed;
}

struct CampaignOut {
  std::string id;
  std::uint64_t fingerprint = 0;
  double adrs = 0.0;
  double tool_seconds = 0.0;
  double host_seconds = 0.0;  // first step to finish()
  int proposals = 0;
  int attempts = 0;
  bool ok = true;  // ended done with a full proposal budget
};

/// Everything one execution of a unit measured.
struct UnitResult {
  double seconds = 0.0;  // host time of the execution
  std::vector<CampaignOut> campaigns;
  std::vector<double> step_ms;
  double busy_s = 0.0;     // sum of step() host time
  double init_s = 0.0;     // sum of first-step host time
  double sim_wall_s = 0.0; // simulated farm elapsed time
  // fleet only
  std::vector<double> poll_ms;
  int protocol_ops = 0;
  double protocol_s = 0.0;
  int protocol_errors = 0;
  double driver_wait_s = 0.0;
  runtime::EvalCache::Stats cache;
  double journal_bytes = 0.0;
  double journal_parse_s = 0.0;
  int journal_errors = 0;
  std::vector<std::string> problems;

  int proposals() const {
    int n = 0;
    for (const CampaignOut& c : campaigns) n += c.proposals;
    return n;
  }
  /// Trajectory fingerprints, by name; equal inputs must give equal ones.
  std::vector<std::pair<std::string, std::uint64_t>> fingerprints;
};

core::OptimizerOptions singleOpts(const std::string& workload, bool smoke) {
  core::OptimizerOptions o;
  o.surrogate.mf = core::MfKind::kNonlinear;
  o.surrogate.obj = core::ObjModelKind::kCorrelated;
  if (workload == "paper_sync") {
    o.n_iter = 40;
    o.batch_size = 1;
    o.n_workers = 1;
    o.max_candidates = 400;
    o.mc_samples = 32;
    o.refit_every = 1;
  } else {  // async_scan
    o.async = true;
    o.n_workers = 4;
    o.n_iter = 40;
    o.max_candidates = 2000;
    o.mc_samples = 32;
    o.refit_every = 16;
  }
  if (smoke) {
    o.n_iter = 4;
    o.max_candidates = 40;
    o.mc_samples = 8;
    o.surrogate.gp.max_mle_iters = 10;
    o.surrogate.mtgp.max_mle_iters = 10;
    o.surrogate.gp.mle_restarts = 0;
    o.surrogate.mtgp.mle_restarts = 0;
  }
  return o;
}

/// paper_sync / async_scan: one sort_radix campaign stepped to completion.
/// run() is safe to call from several lanes at once: the context's space
/// and ground truth are only read, and each campaign gets its own
/// simulator (the synchronous path charges through it).
class SingleCampaign {
 public:
  explicit SingleCampaign(const Args& a) : args_(a) {}

  double setup() {
    BenchSpan span("setup", 0, 0);
    ctx_.reset();  // tearing down the previous context is not set-up
    const auto t0 = Clock::now();
    ctx_ = std::make_unique<exp::BenchmarkContext>(
        bench_suite::makeSortRadix(), kSimSeed);
    return secondsSince(t0);
  }

  /// Unit `unit` of a run is the campaign with the unit-th seed.
  UnitResult run(std::uint64_t trace_id, int unit) {
    UnitResult out;
    core::OptimizerOptions o = singleOpts(args_.workload, args_.smoke);
    o.seed = campaignSeed(args_.seed, unit);
    const bench_suite::Benchmark& bm = ctx_->benchmark();
    sim::FpgaToolSim sim(bm.kernel, sim::DeviceModel::virtex7Vc707(),
                         bm.sim_params, kSimSeed);
    sim.setDieMap(bm.die_map);

    const auto t0 = Clock::now();
    BenchSpan campaign_span("campaign", trace_id, 0);
    core::CampaignStepper stepper(ctx_->space(), sim, o);
    bool first = true;
    while (!stepper.done()) {
      BenchSpan s(first ? "step.init" : "step", trace_id, campaign_span.id());
      const auto ts = Clock::now();
      stepper.step();
      const double dt = secondsSince(ts);
      out.step_ms.push_back(1e3 * dt);
      out.busy_s += dt;
      if (first) out.init_s += dt;
      first = false;
    }
    core::OptimizeResult res;
    {
      BenchSpan s("finish", trace_id, campaign_span.id());
      res = stepper.finish();
    }
    CampaignOut c;
    c.id = std::string("c").append(std::to_string(unit));
    c.host_seconds = secondsSince(t0);
    std::vector<std::size_t> selected;
    for (const core::SampleRecord& r : res.cs) selected.push_back(r.config);
    {
      BenchSpan s("adrsOf", trace_id, campaign_span.id());
      c.adrs = ctx_->adrsOf(selected);
    }
    c.fingerprint = fingerprintOf(res, true);
    c.tool_seconds = res.tool_seconds;
    c.proposals = static_cast<int>(res.iterations.size());
    c.attempts = res.attempts;
    c.ok = c.proposals == o.n_iter;
    if (!c.ok)
      out.problems.push_back("campaign ended after " +
                             std::to_string(c.proposals) + " of " +
                             std::to_string(o.n_iter) + " proposals");
    out.sim_wall_s = res.wall_seconds;
    // The campaign's private cache: proposals answered from it vs tool runs.
    out.cache.hits = static_cast<std::uint64_t>(res.cache_hits);
    out.cache.misses = static_cast<std::uint64_t>(res.tool_runs);
    out.fingerprints.emplace_back(c.id, c.fingerprint);
    out.campaigns.push_back(c);
    out.seconds = secondsSince(t0);
    return out;
  }

 private:
  static constexpr std::uint64_t kSimSeed = 42;
  const Args& args_;
  std::unique_ptr<exp::BenchmarkContext> ctx_;
};

/// fleet: twelve spmv_crs campaigns on one in-process server, submitted and
/// polled through the NDJSON protocol.
class Fleet {
 public:
  explicit Fleet(const Args& a)
      : args_(a), n_campaigns_(a.smoke ? 4 : 12),
        tmp_root_(".bench_tmp/fleet-" + std::to_string(::getpid())) {}

  ~Fleet() {
    std::error_code ec;
    std::filesystem::remove_all(tmp_root_, ec);
  }

  /// The standard tool (sim_seed 42) and a second one. They stay fixed
  /// across workload seeds: a sim_seed changes the cost landscape of every
  /// campaign that uses it, which would make the workload seed, rather than
  /// the program, decide the fleet's host time.
  static std::uint64_t simSeed(int i) {
    return 42 + static_cast<std::uint64_t>(i % 2);
  }

  double setup() {
    BenchSpan span("setup", 0, 0);
    ctxs_.clear();  // tearing down the previous contexts is not set-up
    const auto t0 = Clock::now();
    for (int k = 0; k < 2; ++k)
      ctxs_[simSeed(k)] = std::make_unique<exp::BenchmarkContext>(
          bench_suite::makeSpmvCrs(), simSeed(k));
    // Every unit runs on a fresh server (its shared cache must start cold
    // for a unit's trajectories to repeat), so set-up builds and starts one
    // the way every unit does. Stopping it is not set-up.
    server::OptimizationServer srv(serverOptions(""));
    srv.start();
    const double s = secondsSince(t0);
    srv.stop();
    return s;
  }

  /// Unit `unit` of a run is the fleet of the unit-th block of twelve
  /// campaign seeds.
  UnitResult run(std::uint64_t trace_id, int unit) {
    UnitResult out;
    const std::string jdir = tmp_root_ + "/r" + std::to_string(repeat_++);
    std::filesystem::create_directories(jdir);

    struct Event {
      Clock::time_point at;
      std::string line;
    };
    std::mutex ev_mu;
    std::vector<Event> events;

    const auto t0 = Clock::now();
    BenchSpan repeat_span("fleet.repeat", trace_id, 0);
    server::OptimizationServer srv(serverOptions(jdir));
    // One protocol request, timed and checked; spans of a request about
    // one campaign carry that campaign's trace id.
    const auto handle = [&](const std::string& line, const char* op,
                            std::uint64_t trace, double* ms) {
      BenchSpan s(op, trace, repeat_span.id());
      const auto ts = Clock::now();
      const std::string resp = srv.handleLine(line, nullptr, nullptr, nullptr);
      const double dt = secondsSince(ts);
      ++out.protocol_ops;
      out.protocol_s += dt;
      if (ms != nullptr) *ms = 1e3 * dt;
      util::Json j;
      if (!util::parseJson(resp, &j) || j.kind != util::Json::kObj ||
          j.find("ok") == nullptr || !j.find("ok")->b) {
        ++out.protocol_errors;
        out.problems.push_back(std::string("error reply to ") + op + ": " +
                               resp.substr(0, 200));
        return util::Json{};
      }
      return j;
    };

    const int token = srv.subscribe([&](const std::string& line) {
      const auto at = Clock::now();
      std::lock_guard<std::mutex> lk(ev_mu);
      events.push_back({at, line});
    });
    srv.start();

    std::vector<std::string> ids;
    for (int i = 0; i < n_campaigns_; ++i) {
      char id[16];
      std::snprintf(id, sizeof id, "c%02d", i);
      ids.push_back(id);
      handle(submitLine(id, n_campaigns_ * unit + i, simSeed(i)),
             "handleLine.submit",
             campaignTrace(trace_id, id), nullptr);
    }

    // Poll status / list / stats while the campaigns run: a client issuing
    // one request, waiting for its reply, then pausing 1 ms (closed loop).
    for (std::size_t k = 0;; ++k) {
      double ms = 0.0;
      bool finished = false;
      if (k % 3 == 0) {
        const std::string& id = ids[(k / 3) % ids.size()];
        handle("{\"op\":\"status\",\"id\":\"" + id + "\"}",
               "handleLine.status", campaignTrace(trace_id, id), &ms);
      } else if (k % 3 == 1) {
        const util::Json j =
            handle("{\"op\":\"list\"}", "handleLine.list", trace_id, &ms);
        finished = j.kind != util::Json::kObj || allTerminal(j);
      } else {
        handle("{\"op\":\"stats\"}", "handleLine.stats", trace_id, &ms);
      }
      out.poll_ms.push_back(ms);
      if (finished) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    handle("{\"op\":\"drain\"}", "handleLine.drain", trace_id, nullptr);
    srv.unsubscribe(token);
    out.seconds = secondsSince(t0);

    const server::ServerStats st = srv.stats();
    out.cache = st.cache;
    out.sim_wall_s = st.farm_makespan_seconds;

    // Per-campaign timings from the event stream: each round event
    // arrives right after its step, which took `step_seconds`.
    struct RoundEvent {
      Clock::time_point start, end;
      bool init = false;
    };
    std::map<std::string, std::vector<RoundEvent>> rounds;
    std::map<std::string, Clock::time_point> done_at;
    for (const Event& e : events) {
      util::Json j;
      if (!util::parseJson(e.line, &j)) continue;
      const std::string kind = j.strOr("event", "");
      const std::string id = j.strOr("id", "");
      if (kind == "round") {
        const double step = j.numOr("step_seconds", 0.0);
        out.step_ms.push_back(1e3 * step);
        out.busy_s += step;
        const bool init = j.numOr("round", 0.0) < 0.0;
        if (init) out.init_s += step;
        rounds[id].push_back(
            {e.at - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(step)),
             e.at, init});
      } else if (kind == "state" && j.strOr("state", "") == "done") {
        done_at[id] = e.at;
      }
    }
    std::map<std::string, bool> done;
    for (const server::StatusSnapshot& st : srv.list())
      done[st.id] = st.state == server::CampaignState::kDone;

    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::string& id = ids[i];
      CampaignOut c;
      c.id = id;
      const std::shared_ptr<server::Campaign> camp = srv.campaign(id);
      std::optional<core::OptimizeResult> res;
      {
        BenchSpan s("campaign.result", campaignTrace(trace_id, id),
                    repeat_span.id());
        if (camp != nullptr) res = camp->result();
      }
      const std::vector<RoundEvent>& evs = rounds[id];
      const std::uint64_t ctrace = campaignTrace(trace_id, id);
      const std::uint64_t cspan = g_spans.newId();
      for (std::size_t k = 0; k < evs.size(); ++k) {
        g_spans.add(evs[k].init ? "step.init" : "step", ctrace,
                    g_spans.newId(), cspan, evs[k].start, evs[k].end);
        // Waiting for one of the server's slots between two steps.
        if (k > 0)
          out.driver_wait_s += std::max(
              0.0, std::chrono::duration<double>(evs[k].start - evs[k - 1].end)
                       .count());
      }
      if (!evs.empty() && done_at.count(id) != 0) {
        c.host_seconds =
            std::chrono::duration<double>(done_at[id] - evs.front().start)
                .count();
        g_spans.add("campaign", ctrace, cspan, repeat_span.id(),
                    evs.front().start, done_at[id]);
      }
      if (!done[id] || !res.has_value()) {
        c.ok = false;
        out.problems.push_back("campaign " + id + " did not end done");
      } else {
        std::vector<std::size_t> selected;
        for (const core::SampleRecord& r : res->cs)
          selected.push_back(r.config);
        {
          BenchSpan s("adrsOf", campaignTrace(trace_id, id), repeat_span.id());
          c.adrs = ctxs_.at(simSeed(static_cast<int>(i)))->adrsOf(selected);
        }
        // Co-tenants of one cache namespace race for shared flows, so the
        // charge of a campaign (and of the fleet) depends on how the
        // campaigns interleave; the CS sequence does not.
        c.fingerprint = fingerprintOf(*res, false);
        c.tool_seconds = res->tool_seconds;
        c.proposals = static_cast<int>(res->iterations.size());
        c.attempts = res->attempts;
        if (c.proposals != n_iter()) {
          c.ok = false;
          out.problems.push_back("campaign " + id + " made " +
                                 std::to_string(c.proposals) + " proposals");
        }
      }

      // The journal each campaign left behind: size and parse time.
      const std::string ckpt = jdir + "/" + id + ".ckpt.json";
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(ckpt, ec);
      if (!ec) out.journal_bytes += static_cast<double>(bytes);
      core::CheckpointState cs;
      std::string err;
      const auto tp = Clock::now();
      bool loaded = false;
      {
        BenchSpan s("loadCheckpointAny", campaignTrace(trace_id, id),
                    repeat_span.id());
        loaded = core::loadCheckpointAny(ckpt, &cs, &err);
      }
      out.journal_parse_s += secondsSince(tp);
      if (!loaded) {
        ++out.journal_errors;
        out.problems.push_back("journal " + id + " unreadable: " + err);
      }
      out.fingerprints.emplace_back(c.id, c.fingerprint);
      out.campaigns.push_back(c);
    }
    srv.stop();
    std::error_code ec;
    std::filesystem::remove_all(jdir, ec);
    return out;
  }

 private:
  int n_iter() const { return args_.smoke ? 8 : 64; }

  server::ServerOptions serverOptions(const std::string& jdir) const {
    server::ServerOptions so;
    so.slots = 2;
    so.workers = 2;
    so.journal_dir = jdir;
    return so;
  }

  std::string submitLine(const std::string& id, int seed_index,
                         std::uint64_t sim_seed) const {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"op\":\"submit\",\"id\":\"%s\",\"benchmark\":\"spmv_crs\","
        "\"seed\":%llu,\"sim_seed\":%llu,\"batch_size\":2,\"n_iter\":%d,"
        "\"refit_every\":8,\"max_candidates\":40,\"mc_samples\":8,"
        "\"max_mle_iters\":25,\"mle_restarts\":0}",
        id.c_str(),
        static_cast<unsigned long long>(campaignSeed(args_.seed, seed_index)),
        static_cast<unsigned long long>(sim_seed), n_iter());
    return buf;
  }

  static bool allTerminal(const util::Json& list) {
    const util::Json* arr = list.find("campaigns");
    if (arr == nullptr || arr->kind != util::Json::kArr) return false;
    for (const util::Json& c : arr->arr) {
      const std::string s = c.strOr("state", "");
      if (s != "done" && s != "failed" && s != "cancelled") return false;
    }
    return true;
  }

  static std::uint64_t campaignTrace(std::uint64_t repeat_trace,
                                     const std::string& id) {
    Fnv f;
    f.u64(repeat_trace);
    f.bytes(id.data(), id.size());
    return f.value();
  }

  const Args& args_;
  const int n_campaigns_;
  const std::string tmp_root_;
  int repeat_ = 0;
  std::map<std::uint64_t, std::unique_ptr<exp::BenchmarkContext>> ctxs_;
};

// ------------------------------------------------------------- layers ----

/// Per-layer totals harvested from the program's own obs series over the
/// traced executions.
struct LayerTotals {
  std::map<std::string, double> sum;    // histogram sums / counter values
  std::map<std::string, double> count;  // histogram counts

  void absorb(const obs::MetricsSnapshot& snap) {
    for (const obs::MetricPoint& p : snap) {
      if (p.kind == obs::MetricKind::kHistogram) {
        sum[p.name] += p.sum;
        count[p.name] += static_cast<double>(p.count);
      } else if (p.kind == obs::MetricKind::kCounter) {
        sum[p.name] += p.value;
        count[p.name] += static_cast<double>(p.count);
      }
    }
  }
  double s(const std::string& k) const {
    const auto it = sum.find(k);
    return it == sum.end() ? 0.0 : it->second;
  }
  double n(const std::string& k) const {
    const auto it = count.find(k);
    return it == count.end() ? 0.0 : it->second;
  }
};

// ------------------------------------------------------------ metrics ----

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  double spread = 0.0;  // (q3 - q1) / median over the samples, 0 if single
};

Metric fromSamples(const std::string& name, const std::vector<double>& v,
                   const std::string& unit) {
  Metric m{name, median(v), unit, v.size(), 0.0};
  if (v.size() > 1 && m.value != 0.0)
    m.spread = (quantile(v, 0.75) - quantile(v, 0.25)) / std::fabs(m.value);
  return m;
}

Metric single(const std::string& name, double v, const std::string& unit,
              std::size_t samples = 1) {
  return Metric{name, v, unit, samples, 0.0};
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void appendNum(std::string& s, double v) {
  char buf[64];
  if (std::isfinite(v)) std::snprintf(buf, sizeof buf, "%.17g", v);
  else std::snprintf(buf, sizeof buf, "null");
  s += buf;
}

void appendMetrics(std::string& s, const std::vector<Metric>& ms) {
  s += "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    if (i > 0) s += ",";
    util::putString(s, m.name);
    s += ":{\"value\":";
    appendNum(s, m.value);
    s += ",\"unit\":";
    util::putString(s, m.unit);
    s += ",\"samples\":";
    appendNum(s, static_cast<double>(m.samples));
    s += ",\"spread\":";
    appendNum(s, m.spread);
    s += "}";
  }
  s += "}";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace


int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  g_spans.enabled = args.trace;
  obs::tracer().setEnabled(false);
  obs::metrics().setEnabled(false);

  const bool fleet = args.workload == "fleet";
  std::unique_ptr<SingleCampaign> single_wl;
  std::unique_ptr<Fleet> fleet_wl;
  if (fleet) fleet_wl = std::make_unique<Fleet>(args);
  else single_wl = std::make_unique<SingleCampaign>(args);

  // The plan: batches of units (inputs), one row each, run on parallel
  // lanes, traced or not. Its size is fixed by --seconds and the workload's
  // nominal unit time, never by how fast this build runs, so two builds
  // measure identical inputs.
  //  - paper_sync / async_scan: unit u is the campaign with the u-th seed.
  //    Two lanes each step one campaign of a row; the next row starts
  //    when both are done. Two busy threads leave headroom on a shared
  //    4-vCPU host: with three, two spinning neighbours cut throughput
  //    by a fifth, with two they left it unchanged.
  //  - fleet: unit u is a fresh server running the u-th block of twelve
  //    campaigns, on one lane (the server steps two campaigns at a time).
  // The last slot repeats unit 0, to check determinism.
  // A traced run executes one row of units untraced, then the remaining
  // rows traced, starting again from unit 0.
  // Set-up is timed in a block of set-ups before every batch and after the
  // last: its median then spans the run's drift in host speed, as the
  // other metrics do, and no single slow page-in decides it.
  struct Batch {
    bool traced = false;
    std::vector<std::vector<int>> lanes;
  };
  const int lanes = fleet ? 1 : 2;
  const double nominal = args.smoke ? 0.5 : (fleet ? 4.5 : 9.0);
  const int rows =
      std::max(2, static_cast<int>(std::lround(args.seconds / nominal)));
  std::vector<Batch> batches;
  const auto add_rows = [&](bool traced, int n_rows) {
    int u = 0;
    for (int r = 0; r < n_rows; ++r) {
      Batch b{traced, std::vector<std::vector<int>>(lanes)};
      for (int l = 0; l < lanes; ++l) b.lanes[l].push_back(u++);
      batches.push_back(std::move(b));
    }
  };
  if (args.trace) {
    add_rows(false, 1);
    add_rows(true, rows - 1);
  } else {
    add_rows(false, rows);
    batches.back().lanes.back().back() = 0;  // the determinism repeat
  }
  const int setups_per_block = args.smoke ? 1 : (fleet ? 20 : 6);
  std::vector<double> setup_s;
  const auto setup_block = [&] {
    for (int i = 0; i < setups_per_block; ++i)
      setup_s.push_back(fleet ? fleet_wl->setup() : single_wl->setup());
  };

  struct Execution {
    int unit = 0;
    bool traced = false;
    bool repeat = false;  // an untraced unit run again: a check, not timed
    UnitResult out;
  };
  std::map<int, bool> untraced_seen;
  std::vector<Execution> execs;
  // Untraced proposals and host seconds, per lane, over all batches.
  std::vector<double> lane_props(lanes, 0.0), lane_secs(lanes, 0.0);
  LayerTotals layers;
  std::atomic<std::uint64_t> next_trace{1};
  const auto m0 = Clock::now();
  setup_block();
  for (const Batch& b : batches) {
    if (b.traced) {
      obs::metrics().clear();
      obs::tracer().clear();
      obs::metrics().setEnabled(true);
      obs::tracer().setEnabled(true);
    }
    std::vector<std::vector<UnitResult>> outs(lanes);
    std::vector<std::string> errors(lanes);
    std::vector<std::thread> threads;
    for (int l = 0; l < lanes; ++l)
      threads.emplace_back([&, l] {
        try {
          for (int unit : b.lanes[l])
            outs[l].push_back(fleet ? fleet_wl->run(next_trace++, unit)
                                    : single_wl->run(next_trace++, unit));
        } catch (const std::exception& e) {
          errors[l] = e.what();
        }
      });
    for (std::thread& t : threads) t.join();
    if (b.traced) {
      obs::metrics().setEnabled(false);
      obs::tracer().setEnabled(false);
      layers.absorb(obs::metrics().snapshot());
    }
    for (int l = 0; l < lanes; ++l) {
      if (!errors[l].empty()) {
        std::fprintf(stderr, "perfbench: lane %d failed: %s\n", l,
                     errors[l].c_str());
        return 1;
      }
      for (std::size_t k = 0; k < outs[l].size(); ++k) {
        const int unit = b.lanes[l][k];
        const bool repeat = !b.traced && untraced_seen[unit];
        if (!b.traced) untraced_seen[unit] = true;
        if (!b.traced && !repeat) {
          lane_props[l] += outs[l][k].proposals();
          lane_secs[l] += outs[l][k].seconds;
        }
        execs.push_back({unit, b.traced, repeat, std::move(outs[l][k])});
      }
    }
    setup_block();
  }
  const double measured_s = secondsSince(m0);

  // ---- correctness: equal inputs give equal fingerprints ----
  std::vector<std::string> problems;
  long long attempted = 0, failed = 0;
  std::map<int, const UnitResult*> first_of;  // unit -> first execution
  for (std::size_t k = 0; k < execs.size(); ++k) {
    const int unit = execs[k].unit;
    const UnitResult& r = execs[k].out;
    auto fp = r.fingerprints;
    if (args.perturb && k == execs.size() - 1 && !fp.empty())
      fp.back().second ^= 1;
    for (const std::string& p : r.problems) problems.push_back(p);
    attempted += r.proposals() + r.protocol_ops +
                 static_cast<long long>(r.campaigns.size());
    failed += r.protocol_errors + r.journal_errors;
    const UnitResult* ref = first_of.emplace(unit, &r).first->second;
    for (std::size_t c = 0; c < fp.size(); ++c) {
      if (fp.size() != ref->fingerprints.size() ||
          fp[c] != ref->fingerprints[c]) {
        problems.push_back("execution " + std::to_string(k) + " of unit " +
                           std::to_string(unit) + ": fingerprint " +
                           fp[c].first + " differs from the first execution");
        ++failed;
      }
    }
    for (const CampaignOut& co : r.campaigns) {
      if (!std::isfinite(co.adrs)) {
        problems.push_back("campaign " + co.id + ": adrs not finite");
        ++failed;
      } else if (!co.ok) {
        ++failed;
      }
    }
  }
  const bool correct = problems.empty();

  // ---- end-to-end metrics: first untraced execution of each unit ----
  // (a repeated unit would weigh its campaign twice)
  std::vector<double> steps, camp_s, pps_each, p50_each, p95_each;
  std::size_t n_plain = 0, n_traced = 0;
  for (const Execution& e : execs) {
    ++(e.traced ? n_traced : n_plain);
    if (e.traced || e.repeat) continue;
    const UnitResult& r = e.out;
    steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
    for (const CampaignOut& c : r.campaigns) camp_s.push_back(c.host_seconds);
    pps_each.push_back(r.proposals() / r.seconds);
    p50_each.push_back(quantile(r.step_ms, 0.5));
    p95_each.push_back(quantile(r.step_ms, 0.95));
  }
  // Throughput of the process: the lanes' rates add up.
  double pps_total = 0.0;
  for (int l = 0; l < lanes; ++l)
    if (lane_secs[l] > 0.0) pps_total += lane_props[l] / lane_secs[l];
  const auto pooled = [](const std::string& name, double value,
                         const std::vector<double>& each, std::size_t n,
                         const std::string& unit) {
    Metric m = fromSamples(name, each, unit);
    m.value = value;
    m.samples = n;
    return m;
  };
  std::vector<Metric> metrics = {
      fromSamples("setup_s", setup_s, "s"),
      pooled("proposals_per_s", pps_total, pps_each, pps_each.size(),
             "1/s"),
      fromSamples("campaign_s", camp_s, "s"),
      pooled("step_p50_ms", quantile(steps, 0.5), p50_each, steps.size(),
             "ms"),
      pooled("step_p95_ms", quantile(steps, 0.95), p95_each, steps.size(),
             "ms"),
      single("peak_rss_mb", peakRssMb(), "MB"),
  };

  // ---- per-layer metrics: traced executions (per execution) ----
  double busy = 0.0, init = 0.0, steps_n = 0.0;
  double proto_ops = 0.0, proto_s = 0.0, proto_err = 0.0, wait_s = 0.0;
  double jbytes = 0.0, jparse = 0.0, attempts = 0.0;
  double hits = 0.0, misses = 0.0, coalesced = 0.0;
  std::vector<double> polls;
  double nrep = 0.0;
  for (const Execution& e : execs) {
    if (e.traced != (n_traced > 0)) continue;
    const UnitResult& r = e.out;
    nrep += 1.0;
    busy += r.busy_s;
    init += r.init_s;
    steps_n += static_cast<double>(r.step_ms.size());
    polls.insert(polls.end(), r.poll_ms.begin(), r.poll_ms.end());
    proto_ops += r.protocol_ops;
    proto_s += r.protocol_s;
    proto_err += r.protocol_errors;
    wait_s += r.driver_wait_s;
    jbytes += r.journal_bytes;
    jparse += r.journal_parse_s;
    hits += static_cast<double>(r.cache.hits);
    misses += static_cast<double>(r.cache.misses);
    coalesced += static_cast<double>(r.cache.coalesced);
    for (const CampaignOut& c : r.campaigns) attempts += c.attempts;
  }
  const auto per = [&](double v) { return v / nrep; };
  const auto share = [&](double v) { return busy > 0.0 ? v / busy : 0.0; };
  const auto ph = [&](const char* p) {
    return layers.s(std::string("phase.") + p + ".seconds");
  };
  // Top-level phases of a step (the scan_* phases nest in acquisition).
  const double attributed = ph("init") + ph("gp_fit") + ph("believers") +
                            ph("acquisition") + ph("evaluate") +
                            ph("checkpoint") + ph("hypervolume");

  // Quality of the result: deterministic per input, averaged over the
  // run's distinct units.
  double adrs = 0.0, charged = 0.0, sim_wall = 0.0;
  for (const auto& [unit, r] : first_of) {
    double a = 0.0, ch = 0.0;
    for (const CampaignOut& c : r->campaigns) {
      a += c.adrs / static_cast<double>(r->campaigns.size());
      ch += c.tool_seconds;
    }
    adrs += a / static_cast<double>(first_of.size());
    charged += ch / static_cast<double>(first_of.size());
    sim_wall += r->sim_wall_s / static_cast<double>(first_of.size());
  }

  // Tracing overhead: the untraced row against the traced executions of
  // the same units.
  double pps_plain = 0.0, pps_traced = 0.0;
  {
    std::map<int, const UnitResult*> untraced, traced;
    for (const Execution& e : execs)
      (e.traced ? traced : untraced).emplace(e.unit, &e.out);
    double props = 0.0, s0 = 0.0, s1 = 0.0;
    for (const auto& [unit, t] : traced) {
      const auto it = untraced.find(unit);
      if (it == untraced.end()) continue;
      props += t->proposals();
      s0 += it->second->seconds;
      s1 += t->seconds;
    }
    if (s0 > 0.0 && s1 > 0.0) {
      pps_plain = props / s0;
      pps_traced = props / s1;
    }
  }

  const bool has_journal = fleet;
  std::vector<Metric> layer_metrics = {
      single("quality.adrs", adrs, "1", first_of.size()),
      single("quality.charged_tool_h", charged / 3600.0, "h"),
      single("quality.sim_wall_h", sim_wall / 3600.0, "h"),
      single("surrogate.fit_s", per(ph("gp_fit")), "s"),
      single("surrogate.fit_share", share(ph("gp_fit")), "ratio"),
      single("surrogate.mle_iters", per(layers.s("gp.fit_iters")), "count"),
      single("surrogate.dense_fits", per(layers.n("gp.fit_iters")), "count"),
      single("surrogate.appends", per(layers.n("gp.append_us")), "count"),
      single("surrogate.append_s", per(layers.s("gp.append_us")) * 1e-6, "s"),
      single("acq.scan_s", per(ph("acquisition")), "s"),
      single("acq.share", share(ph("acquisition")), "ratio"),
      single("acq.eipv_s", per(ph("scan_eipv")), "s"),
      single("acq.predict_s", per(ph("scan_predict")), "s"),
      single("acq.pareto_s", per(ph("scan_pareto")), "s"),
      single("acq.predict_calls", per(layers.n("gp.predict_batch_us")),
             "count"),
      single("acq.believers_s", per(ph("believers")), "s"),
      single("pareto.hv_s", per(ph("hypervolume")), "s"),
      // A round's checkpoint runs (and is timed) with or without a journal;
      // only fleet writes one. Checkpoint 0 is part of the init phase.
      single("journal.writes",
             has_journal ? per(layers.n("phase.checkpoint.seconds")) : 0.0,
             "count"),
      single("journal.write_s", has_journal ? per(ph("checkpoint")) : 0.0,
             "s"),
      single("journal.bytes", per(jbytes), "bytes"),
      single("journal.parse_s", per(jparse), "s"),
      single("server.protocol_ops", per(proto_ops), "count"),
      single("server.protocol_s", per(proto_s), "s"),
      single("server.protocol_errors", per(proto_err), "count"),
      single("server.driver_wait_s", per(wait_s), "s"),
      single("server.poll_p50_ms", quantile(polls, 0.5), "ms", polls.size()),
      single("server.poll_p99_ms", quantile(polls, 0.99), "ms", polls.size()),
      single("cache.hits", per(hits), "count"),
      single("cache.misses", per(misses), "count"),
      single("cache.coalesced", per(coalesced), "count"),
      single("cache.hit_ratio",
             hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio"),
      single("sched.jobs", per(layers.n("slo.queue_wait_seconds")), "count"),
      single("sched.queue_wait_s", per(layers.s("slo.queue_wait_seconds")),
             "s"),
      single("sched.attempts", per(attempts), "count"),
      single("sim.flow_attempts", per(layers.s("sim.flow_attempts")),
             "count"),
      single("sim.evaluate_s", per(ph("evaluate")), "s"),
      single("stepper.steps", per(steps_n), "count"),
      single("stepper.busy_s", per(busy), "s"),
      single("stepper.init_s", per(init), "s"),
      single("stepper.unattributed_share",
             n_traced == 0 ? 0.0 : share(busy - attributed), "ratio"),
      single("bench.failed_ratio",
             attempted > 0 ? static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                           : 0.0,
             "ratio"),
      single("obs.trace_overhead",
             pps_plain > 0.0 && pps_traced > 0.0
                 ? (pps_traced - pps_plain) / pps_plain
                 : 0.0,
             "ratio"),
  };

  if (args.trace && !args.spans_path.empty() &&
      !g_spans.write(args.spans_path))
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());

  // ---- the record ----
  const obs::RunMeta meta = obs::makeRunMeta();
  std::string s = "{\"workload\":";
  util::putString(s, args.workload);
  const auto field = [&](const char* key, double v) {
    s += ",\"";
    s += key;
    s += "\":";
    appendNum(s, v);
  };
  field("seed", static_cast<double>(args.seed));
  field("trace", args.trace ? 1 : 0);
  s += ",\"smoke\":";
  s += args.smoke ? "true" : "false";
  s += ",\"git_sha\":";
  util::putString(s, meta.git_sha);
  s += ",\"build_type\":";
  util::putString(s, meta.build_type);
  field("nproc", std::thread::hardware_concurrency());
  field("setup_repeats", static_cast<double>(setup_s.size()));
  field("units", static_cast<double>(first_of.size()));
  field("repeats", static_cast<double>(n_plain));
  field("traced_repeats", static_cast<double>(n_traced));
  field("measured_s", measured_s);
  field("spans", static_cast<double>(g_spans.size()));
  s += ",\"correct\":";
  s += correct ? "true" : "false";
  field("attempted", static_cast<double>(attempted));
  field("failed", static_cast<double>(failed));
  s += ",\"fingerprints\":{";
  bool first = true;
  for (const auto& [unit, r] : first_of)
    for (const auto& [name, fp] : r->fingerprints) {
      if (!first) s += ",";
      first = false;
      util::putString(s, std::string("u").append(std::to_string(unit))
                             .append(".")
                             .append(name));
      s += ":";
      util::putString(s, hex(fp));
    }
  // Every execution: unit, traced flag, host seconds, proposals.
  s += "},\"executions\":[";
  for (std::size_t k = 0; k < execs.size(); ++k) {
    if (k > 0) s += ",";
    s += "[";
    appendNum(s, execs[k].unit);
    s += execs[k].traced ? ",1," : ",0,";
    appendNum(s, execs[k].out.seconds);
    s += ",";
    appendNum(s, execs[k].out.proposals());
    s += "]";
  }
  s += "],\"problems\":[";
  for (std::size_t i = 0; i < problems.size() && i < 20; ++i) {
    if (i > 0) s += ",";
    util::putString(s, problems[i]);
  }
  s += "],\"end_to_end\":";
  appendMetrics(s, metrics);
  s += ",\"per_layer\":";
  appendMetrics(s, layer_metrics);
  s += "}";
  std::printf("%s\n", s.c_str());
  return 0;
}
