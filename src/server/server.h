#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/eval_cache.h"
#include "server/farm_model.h"
#include "server/protocol.h"
#include "server/registry.h"

namespace cmmfo::server {

struct ServerOptions {
  /// Width of the simulated tool farm all campaigns' jobs are packed onto
  /// (the per-campaign wall clock and SharedFarmModel). Tool jobs run on
  /// the driver thread that steps their campaign.
  int workers = 4;
  /// Driver threads = campaign steps in flight at once. Each driver claims
  /// the minimum-deficit queued campaign, runs one round, and re-queues it,
  /// so `slots` campaigns step concurrently at any moment.
  int slots = 2;
  /// Directory for per-campaign journals (`<id>.spec.json` at submit,
  /// `<id>.ckpt.json` after every round, `<id>.final.json` on completion).
  /// Empty disables persistence.
  std::string journal_dir;
  /// Re-submit (resume=true) every journaled campaign without a final
  /// marker on start(). Requires journal_dir.
  bool resume = false;
  /// Shared eval-cache LRU bound in flows; 0 = unbounded.
  std::size_t cache_capacity = 0;

  // ---- Supervision & robustness (see docs/robustness.md). ----
  /// Failed steps re-queue the campaign (rebuilt from its last good
  /// checkpoint) up to this many times before it parks in kFailed
  /// permanently; 0 disables restarts (first failure is final).
  int max_restarts = 2;
  /// Base restart backoff; doubles per restart already consumed.
  int restart_backoff_ms = 100;
  /// Watchdog: report (once per step) any step running longer than this;
  /// 0 disables. The step is NOT killed — evals are cooperative — but the
  /// stall is streamed, journaled, and counted.
  double step_deadline_seconds = 0.0;
  /// Emit a heartbeat event on the stream this often; 0 disables.
  double heartbeat_seconds = 0.0;
  /// Shut down TCP connections idle (no request, not subscribed) longer
  /// than this; 0 disables.
  double idle_timeout_seconds = 0.0;
  /// Admission bound on non-terminal campaigns; submits beyond it are shed
  /// with an explicit load-shed reply. 0 = unbounded.
  std::size_t max_campaigns = 0;
  /// Protocol line-length bound: a complete longer line gets an error
  /// reply; an unbounded (newline-free) buffer closes the connection.
  std::size_t max_line_bytes = 1 << 20;
  /// Deterministic fault injection for the chaos harness: before each
  /// claimed step, a seeded per-(campaign, attempt) coin either throws a
  /// synthetic step fault or sleeps `hang_ms` (a hung eval the watchdog
  /// must catch). Injection happens BEFORE the stepper runs, so a
  /// restarted campaign replays its trajectory bit-identically.
  struct ChaosOptions {
    std::uint64_t seed = 0;
    double step_fault_prob = 0.0;
    double step_hang_prob = 0.0;
    int hang_ms = 20;
    /// Restrict injection to one campaign id (empty = all): lets tests pin
    /// faults on a victim and assert bystanders are untouched.
    std::string only_id;
  } chaos;
};

/// Aggregate counters for the stats endpoint / throughput bench.
struct ServerStats {
  runtime::EvalCache::Stats cache;
  double farm_makespan_seconds = 0.0;
  std::size_t campaigns = 0;
  std::size_t steps_executed = 0;
  SupervisionStats supervision;
};

/// Long-running multi-campaign optimization daemon: many tenants' BO
/// campaigns multiplexed over ONE simulated tool farm and ONE shared
/// fidelity-aware eval cache.
///
/// Architecture: submit() builds a Campaign (design space cached per
/// benchmark; simulator private per campaign) and registers it queued.
/// `slots` driver threads loop {pick minimum-deficit queued campaign, run
/// one BO round (its tool jobs run on the driver thread), write its
/// checkpoint journal, publish a round event, re-queue}. Fairness,
/// persistence, and streaming all hang off that one loop.
///
/// Threading: Registry and Campaign carry their own locks; mu_ below only
/// guards the driver wakeup condition, subscribers, and counters. Event
/// sinks are invoked OUTSIDE mu_ (a stalled subscriber socket can only
/// block its own delivery, never submit/pause/stop), serialized per
/// subscriber; unsubscribe() blocks until in-flight deliveries to that sink
/// finish, so a transport can tear its stream down right after. Sinks MUST
/// NOT call back into the server (they run on driver threads).
class OptimizationServer {
 public:
  explicit OptimizationServer(ServerOptions opts);
  ~OptimizationServer();

  /// Launch the driver threads (and journal resume when configured).
  void start();
  /// Finish in-flight steps, then stop the drivers and join every transport
  /// thread (live connections are shut down so blocked reads return).
  /// Idempotent AND blocking: a concurrent stop() waits for the in-flight
  /// one to finish before returning, so the caller may destroy the server
  /// right after. Campaigns keep their states; a journaled server can be
  /// restarted later. Must not be called from a driver/connection thread.
  void stop();
  /// Block until no campaign is queued or running (paused ones keep the
  /// server drained — they only re-enter on an explicit resume) and every
  /// step's records, final marker and state event are out.
  void drain();
  /// Block until stop() is initiated (the TCP daemon's main-thread park).
  void waitUntilStopped();

  // ---- Tenant operations (all safe from any thread). ----
  /// `shed` (when non-null) is set true iff the refusal was admission
  /// control (server at max_campaigns), i.e. "retry later", not "bad spec".
  bool submit(const CampaignSpec& spec, std::string* err,
              bool* shed = nullptr);
  bool pause(const std::string& id, std::string* err);
  bool resumeCampaign(const std::string& id, std::string* err);
  bool cancel(const std::string& id, std::string* err);
  std::shared_ptr<Campaign> campaign(const std::string& id) const;
  std::vector<StatusSnapshot> list() const;
  ServerStats stats() const;

  // ---- Event streaming. ----
  using EventSink = std::function<void(const std::string& line)>;
  int subscribe(EventSink sink);
  void unsubscribe(int token);

  // ---- Protocol front ends. ----
  /// Handle one NDJSON request line; returns the response line. subscribe
  /// registers `sink` (when non-null) for this connection's event stream
  /// and stores the subscription token in `*sub_token` (for the
  /// transport's cleanup on disconnect). drain blocks inside this call;
  /// shutdown sets `*quit` and leaves stopping to the transport.
  std::string handleLine(const std::string& line, const EventSink& sink,
                         bool* quit, int* sub_token);
  /// Serve the line protocol over streams (tests, CI smoke, --stdio mode):
  /// requests from `in`, responses AND subscribed events to `out`
  /// (interleaved whole lines, write-locked). Returns on EOF or shutdown.
  void serveStdio(std::istream& in, std::ostream& out);
  /// Listen on 127.0.0.1:`port` (0 = ephemeral) and serve each connection
  /// on its own thread. Returns the bound port; serving continues until
  /// stop().
  int listenTcp(int port);
  /// Prometheus exposition: listen on 127.0.0.1:`port` (0 = ephemeral) and
  /// answer `GET /metrics` (or `/`) with the live registry in text format
  /// 0.0.4. One scrape is served at a time (scrapes are tiny and the
  /// endpoint is read-only). Returns the bound port, -1 on error; serving
  /// continues until stop().
  int listenMetricsHttp(int port);

  runtime::EvalCache& cache() { return cache_; }
  const SharedFarmModel& farm() const { return farm_; }
  const ServerOptions& options() const { return opts_; }

 private:
  /// Per-TCP-connection ledger entry: the fd plus the watchdog's idle-reap
  /// inputs (last request instant, subscription flag, reaped-once latch).
  struct ConnState {
    int fd = -1;
    std::atomic<std::int64_t> last_active_ms{0};
    std::atomic<bool> subscribed{false};
    std::atomic<bool> reaped{false};
  };

  void driverLoop();
  void watchdogLoop();
  void acceptLoop();
  void metricsAcceptLoop();
  void serveFd(const std::shared_ptr<ConnState>& conn);
  /// Initiate shutdown without joining anything: set stopping_, close the
  /// listener, and shut down live connection sockets so their readers
  /// unblock. Safe from any thread (the shutdown op calls it from a
  /// connection thread); stop() runs it first, then joins.
  void requestStop();
  /// Throw/sleep per the seeded chaos coin for this campaign's next
  /// attempt; no-op when chaos is off or the campaign is not targeted.
  void maybeInjectChaos(Campaign& c) const;
  /// Supervision response to a failed step: restart (with backoff) while
  /// attempts remain, else park in kFailed; journals a diagnostic record
  /// and publishes the transition either way.
  void superviseFailure(const std::shared_ptr<Campaign>& c,
                        const std::string& what);
  /// Journal helpers (no-ops without journal_dir). writeSpecFile returns
  /// false when the spec could not be written. publishFinal writes the
  /// final marker and publishes the terminal state event; a failed marker
  /// write is reported in that event's error and never thrown.
  bool writeSpecFile(const CampaignSpec& spec) const;
  void publishFinal(const std::string& id, CampaignState state,
                    std::string error = "");
  void resumeFromJournal();
  std::string journalPath(const std::string& id, const char* suffix) const;
  /// Append one record line to `<id>.diag.jsonl` (no-op without
  /// journal_dir): failures, restarts, stalls, journal rollbacks, surrogate
  /// recovery notes. A record that cannot be written is counted in
  /// SupervisionStats::diag_dropped.
  void appendDiag(const std::string& id, const std::string& line) const;
  SupervisionStats supervisionStats() const;
  void publish(const std::string& line);
  /// Wake drivers (new work) and drain()ers (work finished).
  void notifyAll();

  ServerOptions opts_;
  runtime::EvalCache cache_;
  SharedFarmModel farm_;
  Registry registry_;

  /// Serializes stop() itself: a second concurrent stop blocks until the
  /// first finishes joining, so whoever returns from stop() may safely
  /// destroy the server.
  std::mutex stop_mu_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stopping_ = false;
  /// Claimed steps whose driver has not yet written their records and
  /// events: a campaign turns terminal before its final marker is written.
  int steps_in_flight_ = 0;
  std::vector<std::thread> drivers_;
  /// One registered event sink. Deliveries happen outside mu_ under the
  /// subscriber's own lock; unsubscribe flips `active` under that lock, so
  /// it cannot return while a delivery to this sink is in flight.
  struct Subscriber {
    std::mutex m;
    EventSink sink;
    bool active = true;
  };
  int next_token_ = 1;
  std::map<int, std::shared_ptr<Subscriber>> subscribers_;
  std::atomic<std::size_t> steps_executed_{0};

  /// Supervision machinery. The watchdog thread ticks on cv_ (so stop()
  /// wakes it), emits heartbeats, reports stalled steps, and reaps idle
  /// connections. admission_mu_ serializes the max_campaigns check with the
  /// registry insert so concurrent submits cannot overshoot the bound.
  std::thread watchdog_;
  std::chrono::steady_clock::time_point started_at_{};
  mutable std::mutex admission_mu_;
  mutable std::mutex diag_mu_;
  /// <id>.diag.jsonl records lost to a failed open, write or flush.
  mutable std::atomic<std::size_t> diag_dropped_{0};
  std::atomic<std::size_t> restarts_total_{0};
  std::atomic<std::size_t> stalled_steps_{0};
  std::atomic<std::size_t> load_shed_{0};
  std::atomic<std::size_t> reaped_conns_{0};

  /// Design spaces are immutable and expensive to build: shared across
  /// campaigns of the same benchmark. Guarded by spaces_mu_.
  mutable std::mutex spaces_mu_;
  std::map<std::string, std::shared_ptr<const hls::DesignSpace>> spaces_;

  /// TCP listener state. conns_mu_ guards the connection ledger: the fds
  /// requestStop() must shut down to unblock their readers, the threads
  /// stop() joins, and the flag that tells acceptLoop() to refuse a
  /// connection that races the shutdown sweep.
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;
  /// Prometheus scrape listener (see listenMetricsHttp).
  std::atomic<int> metrics_listen_fd_{-1};
  std::thread metrics_accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::shared_ptr<ConnState>> conns_;
  bool conns_stopping_ = false;
};

}  // namespace cmmfo::server
