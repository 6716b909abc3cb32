// cmmfo_server — long-running multi-campaign optimization daemon.
//
// Many tenants' BO campaigns multiplex over one simulated tool farm and one
// shared fidelity-aware eval cache, driven by a fair cost-aware scheduler.
// Control is a newline-delimited JSON line protocol:
//   --stdio       serve requests on stdin, responses/events on stdout
//                 (headless tests, CI smoke, driving from a script)
//   --port N      listen on 127.0.0.1:N (0 = pick an ephemeral port)
// With --journal DIR every campaign persists a spec file and a per-round
// CRC-framed checkpoint; `--resume` on a restart picks every unfinished
// campaign up trajectory-identically (kill -9 safe — torn journal tails
// are detected, quarantined, and rolled back to the last intact frame).
//
// Supervision: failed steps restart from the last good checkpoint with
// exponential backoff (--max-restarts / --restart-backoff-ms); a watchdog
// reports steps overrunning --step-deadline, emits --heartbeat liveness
// events, and reaps TCP connections idle past --idle-timeout. SIGTERM and
// SIGINT trigger one blocking graceful stop; a second signal exits
// immediately with status 128+sig.
//
// Example session (stdio):
//   {"op":"submit","id":"a","benchmark":"spmv_crs","seed":7,"n_iter":10}
//   {"op":"subscribe"}
//   {"op":"drain"}
//   {"op":"shutdown"}

#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "server/server.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: cmmfo_server (--stdio | --port N) [options]\n"
      "  --stdio               serve the line protocol on stdin/stdout\n"
      "  --port N              listen on 127.0.0.1:N (0 = ephemeral)\n"
      "  --workers N           simulated tool-farm width (default 4)\n"
      "  --slots N             concurrent campaign steps (default 2)\n"
      "  --journal DIR         per-campaign spec+checkpoint journals\n"
      "  --resume              resume unfinished journaled campaigns\n"
      "  --cache-capacity N    LRU bound in cached flows (0 = none)\n"
      "  --max-campaigns N     admission bound on active campaigns\n"
      "  --max-line-bytes N    protocol line-length limit (default 1MiB)\n"
      "  --max-restarts N      restarts per failed campaign (default 2)\n"
      "  --restart-backoff-ms N base restart backoff, doubles (default 100)\n"
      "  --step-deadline S     watchdog stall deadline in seconds\n"
      "  --heartbeat S         heartbeat event period in seconds\n"
      "  --idle-timeout S      reap idle TCP connections after S seconds\n"
      "  --chaos-seed N        deterministic fault-injection seed\n"
      "  --chaos-fault-prob P  per-step synthetic fault probability\n"
      "  --chaos-hang-prob P   per-step synthetic hang probability\n"
      "  --chaos-hang-ms N     synthetic hang duration (default 20)\n"
      "  --metrics-port N      Prometheus text exposition on 127.0.0.1:N\n"
      "                        (0 = ephemeral; port printed on stdout)\n"
      "  --trace FILE          stream trace spans to FILE as JSONL (rotates\n"
      "                        to FILE.1 past --trace-max-bytes)\n"
      "  --trace-max-bytes N   streaming rotation bound (default 64MiB)\n"
      "  --chrome-trace FILE   dump the trace ring buffer as\n"
      "                        chrome://tracing JSON on exit\n"
      "  --metrics FILE        dump the metrics registry on exit\n"
      "                        (.json = JSON, else CSV)\n"
      "  ('-' paths are refused under --stdio: stdout is the protocol)\n");
}

}  // namespace

int main(int argc, char** argv) {
  cmmfo::server::ServerOptions opts;
  bool stdio = false;
  int port = -1;
  int metrics_port = -1;
  std::string trace_path, chrome_path, metrics_path;
  std::size_t trace_max_bytes = std::size_t{64} << 20;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "cmmfo_server: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--stdio") stdio = true;
    else if (a == "--port") port = std::atoi(next("--port"));
    else if (a == "--workers") opts.workers = std::atoi(next("--workers"));
    else if (a == "--slots") opts.slots = std::atoi(next("--slots"));
    else if (a == "--journal") opts.journal_dir = next("--journal");
    else if (a == "--resume") opts.resume = true;
    else if (a == "--cache-capacity")
      opts.cache_capacity = static_cast<std::size_t>(
          std::atoll(next("--cache-capacity")));
    else if (a == "--max-campaigns")
      opts.max_campaigns =
          static_cast<std::size_t>(std::atoll(next("--max-campaigns")));
    else if (a == "--max-line-bytes")
      opts.max_line_bytes =
          static_cast<std::size_t>(std::atoll(next("--max-line-bytes")));
    else if (a == "--max-restarts")
      opts.max_restarts = std::atoi(next("--max-restarts"));
    else if (a == "--restart-backoff-ms")
      opts.restart_backoff_ms = std::atoi(next("--restart-backoff-ms"));
    else if (a == "--step-deadline")
      opts.step_deadline_seconds = std::atof(next("--step-deadline"));
    else if (a == "--heartbeat")
      opts.heartbeat_seconds = std::atof(next("--heartbeat"));
    else if (a == "--idle-timeout")
      opts.idle_timeout_seconds = std::atof(next("--idle-timeout"));
    else if (a == "--chaos-seed")
      opts.chaos.seed =
          static_cast<std::uint64_t>(std::atoll(next("--chaos-seed")));
    else if (a == "--chaos-fault-prob")
      opts.chaos.step_fault_prob = std::atof(next("--chaos-fault-prob"));
    else if (a == "--chaos-hang-prob")
      opts.chaos.step_hang_prob = std::atof(next("--chaos-hang-prob"));
    else if (a == "--chaos-hang-ms")
      opts.chaos.hang_ms = std::atoi(next("--chaos-hang-ms"));
    else if (a == "--metrics-port")
      metrics_port = std::atoi(next("--metrics-port"));
    else if (a == "--trace") trace_path = next("--trace");
    else if (a == "--trace-max-bytes")
      trace_max_bytes =
          static_cast<std::size_t>(std::atoll(next("--trace-max-bytes")));
    else if (a == "--chrome-trace") chrome_path = next("--chrome-trace");
    else if (a == "--metrics") metrics_path = next("--metrics");
    else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "cmmfo_server: unknown flag %s\n", a.c_str());
      usage();
      return 2;
    }
  }
  if (stdio == (port >= 0)) {  // exactly one transport
    usage();
    return 2;
  }
  if (opts.resume && opts.journal_dir.empty()) {
    std::fprintf(stderr, "cmmfo_server: --resume requires --journal\n");
    return 2;
  }
  if (stdio &&
      (trace_path == "-" || chrome_path == "-" || metrics_path == "-")) {
    // Under --stdio, stdout carries the NDJSON protocol: a telemetry dump
    // interleaved into it would corrupt the session. Dump to a file instead.
    std::fprintf(stderr,
                 "cmmfo_server: '-' (stdout) telemetry paths are not allowed "
                 "with --stdio; use a file path\n");
    return 2;
  }

  // Telemetry plane. Tracing streams live (rotating JSONL) so a daemon
  // killed hard still leaves its spans on disk; the ring buffer stays
  // bounded either way. Metrics are dumped on exit and/or scraped live.
  if (!trace_path.empty() || !chrome_path.empty())
    cmmfo::obs::tracer().setEnabled(true);
  const bool stream_trace = !trace_path.empty() && trace_path != "-";
  if (stream_trace &&
      !cmmfo::obs::tracer().openStream(trace_path, trace_max_bytes)) {
    std::fprintf(stderr, "cmmfo_server: cannot open trace stream %s\n",
                 trace_path.c_str());
    return 1;
  }
  if (!metrics_path.empty() || metrics_port >= 0)
    cmmfo::obs::metrics().setEnabled(true);
  cmmfo::obs::RunMeta meta = cmmfo::obs::makeRunMeta();
  meta.tool = "cmmfo_server";
  for (int i = 1; i < argc; ++i) {
    if (i > 1) meta.flags += ' ';
    meta.flags += argv[i];
  }
  // Flush whatever telemetry remains before any _Exit: close the stream
  // (already on disk — no re-dump), dump the chrome trace and the metrics
  // registry from the live state.
  const auto dumpTelemetry = [&] {
    using cmmfo::obs::Dump;
    cmmfo::obs::tracer().closeStream();
    const std::pair<Dump, std::string> dumps[] = {
        {Dump::kTrace, stream_trace ? std::string() : trace_path},
        {Dump::kChromeTrace, chrome_path},
        {Dump::kMetrics, metrics_path}};
    for (const auto& [what, path] : dumps)
      if (!path.empty() && !cmmfo::obs::writeDump(what, path, meta))
        std::fprintf(stderr, "cmmfo_server: cannot write %s\n", path.c_str());
  };

  // Block SIGTERM/SIGINT process-wide BEFORE any thread spawns, so every
  // server thread inherits the mask and only the watcher below sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  cmmfo::server::OptimizationServer srv(opts);
  srv.start();
  int metrics_bound = -1;
  if (metrics_port >= 0) {
    metrics_bound = srv.listenMetricsHttp(metrics_port);
    if (metrics_bound < 0) {
      std::fprintf(stderr,
                   "cmmfo_server: cannot listen on metrics port %d\n",
                   metrics_port);
      return 1;
    }
    // Under --stdio stdout is the protocol channel; announce on stderr.
    if (stdio)
      std::fprintf(stderr, "{\"metrics_listening\":%d}\n", metrics_bound);
  }

  // Signal watcher: the first SIGTERM/SIGINT runs one blocking graceful
  // stop (drains in-flight steps, flushes journals, joins transports) and
  // exits 0; a second signal while the stop is still draining aborts
  // immediately with the conventional 128+sig status. _Exit (not exit)
  // everywhere: `srv` lives on the main thread's stack, so no destructor
  // may run while another thread still touches the server.
  std::thread([&srv, sigs, &dumpTelemetry] {
    int sig = 0;
    if (sigwait(&sigs, &sig) != 0) return;
    std::thread([&srv, &dumpTelemetry] {
      srv.stop();
      dumpTelemetry();
      std::fflush(stdout);
      std::_Exit(0);
    }).detach();
    if (sigwait(&sigs, &sig) != 0) return;
    // Hard abort: no full dump (the graceful stop may still be mid-flight),
    // but closing the stream flushes already-recorded spans to disk.
    cmmfo::obs::tracer().closeStream();
    std::fflush(stdout);
    std::_Exit(128 + sig);
  }).detach();

  if (stdio) {
    srv.serveStdio(std::cin, std::cout);
    srv.stop();
    dumpTelemetry();
    std::fflush(stdout);
    std::_Exit(0);
  }
  const int bound = srv.listenTcp(port);
  if (bound < 0) {
    std::fprintf(stderr, "cmmfo_server: cannot listen on port %d\n", port);
    return 1;
  }
  // Port on stdout so scripts with --port 0 can find the server.
  std::printf("{\"listening\":%d}\n", bound);
  if (metrics_bound >= 0)
    std::printf("{\"metrics_listening\":%d}\n", metrics_bound);
  std::fflush(stdout);
  // Park until a client sends {"op":"shutdown"} or a signal arrives.
  srv.waitUntilStopped();
  srv.stop();
  dumpTelemetry();
  std::fflush(stdout);
  std::_Exit(0);
}
