#include "server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "obs/prometheus.h"
#include "server/fair_scheduler.h"
#include "util/framed_log.h"

namespace cmmfo::server {

namespace fs = std::filesystem;

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// Deterministic chaos coin in [0, 1): splitmix64 finalize over the chaos
/// seed, an FNV-1a hash of the campaign id, and the per-campaign attempt
/// counter. Same (seed, id, tick) -> same draw, on any host.
double chaosUniform(std::uint64_t seed, const std::string& id,
                    std::uint64_t tick) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t x = seed ^ h;
  x += 0x9e3779b97f4a7c15ULL * (tick + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

OptimizationServer::OptimizationServer(ServerOptions opts)
    : opts_(std::move(opts)), farm_(std::max(opts_.workers, 1)) {
  if (opts_.cache_capacity > 0) cache_.setCapacity(opts_.cache_capacity);
  if (!opts_.journal_dir.empty()) fs::create_directories(opts_.journal_dir);
}

OptimizationServer::~OptimizationServer() { stop(); }

void OptimizationServer::start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
    stopping_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_stopping_ = false;
  }
  started_at_ = SteadyClock::now();
  if (opts_.resume && !opts_.journal_dir.empty()) resumeFromJournal();
  const int slots = std::max(opts_.slots, 1);
  for (int i = 0; i < slots; ++i)
    drivers_.emplace_back([this] { driverLoop(); });
  if (opts_.heartbeat_seconds > 0.0 || opts_.step_deadline_seconds > 0.0 ||
      opts_.idle_timeout_seconds > 0.0)
    watchdog_ = std::thread([this] { watchdogLoop(); });
}

void OptimizationServer::requestStop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Unblock the accept loop, then every per-connection reader: a thread
  // parked in ::read on an idle-but-open connection only returns once its
  // socket is shut down (the owning thread still does the ::close).
  const int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  const int mfd = metrics_listen_fd_.exchange(-1);
  if (mfd >= 0) {
    ::shutdown(mfd, SHUT_RDWR);
    ::close(mfd);
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_stopping_ = true;
  for (const std::shared_ptr<ConnState>& c : conns_)
    ::shutdown(c->fd, SHUT_RDWR);
}

void OptimizationServer::stop() {
  // Plain (blocking) lock: a concurrent stop() waits for the in-flight one
  // to finish joining before returning, so callers — including the
  // destructor racing a shutdown request — never tear the server down
  // under a stop() still touching its members.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  requestStop();
  for (std::thread& t : drivers_)
    if (t.joinable()) t.join();
  drivers_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_accept_thread_.joinable()) metrics_accept_thread_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns)
    if (t.joinable()) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void OptimizationServer::notifyAll() {
  // Campaign states change under each campaign's own lock, not mu_. Passing
  // through mu_ orders this wake-up after any driver or drain() that read
  // the old states under mu_ has parked on cv_, so none of them misses it.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

void OptimizationServer::maybeInjectChaos(Campaign& c) const {
  const ServerOptions::ChaosOptions& ch = opts_.chaos;
  if (ch.step_fault_prob <= 0.0 && ch.step_hang_prob <= 0.0) return;
  const std::string& id = c.spec().id;
  if (!ch.only_id.empty() && ch.only_id != id) return;
  const double u = chaosUniform(ch.seed, id, c.nextChaosTick());
  if (u < ch.step_fault_prob)
    throw std::runtime_error("chaos: injected step fault");
  // A hung eval: sleep, then run the step normally. The delay is invisible
  // to the trajectory (nothing in the optimizer reads wall clocks into
  // algorithm state) but the watchdog must report the overrun.
  if (u < ch.step_fault_prob + ch.step_hang_prob)
    std::this_thread::sleep_for(std::chrono::milliseconds(ch.hang_ms));
}

void OptimizationServer::superviseFailure(const std::shared_ptr<Campaign>& c,
                                          const std::string& what) {
  const std::string& id = c->spec().id;
  std::string reason = what;
  if (opts_.max_restarts > 0 && c->restarts() < opts_.max_restarts) {
    const int prior = c->restarts();
    const long long base = std::max(opts_.restart_backoff_ms, 0);
    const auto backoff =
        std::chrono::milliseconds(base << std::min(prior, 20));
    try {
      const CampaignState st = c->scheduleRestart(backoff, what);
      if (st == CampaignState::kCancelled) {
        publishFinal(id, st);
        return;
      }
      ++restarts_total_;
      std::string d = "{\"type\":\"failure\",\"action\":\"restart\",\"id\":";
      util::putString(d, id);
      d += ",\"restarts\":";
      util::putInt(d, c->restarts());
      d += ",\"backoff_ms\":";
      util::putDouble(d, static_cast<double>(backoff.count()));
      d += ",\"error\":";
      util::putString(d, what);
      d += "}";
      appendDiag(id, d);
      publish(restartEvent(id, c->restarts(),
                           static_cast<double>(backoff.count()), what));
      if (st == CampaignState::kPaused) publish(stateEvent(id, st));
      return;
    } catch (const std::exception& e) {
      reason += std::string("; restart failed: ") + e.what();
    } catch (...) {
      reason += "; restart failed: unknown exception";
    }
  }
  c->fail(reason);
  std::string d = "{\"type\":\"failure\",\"action\":\"failed\",\"id\":";
  util::putString(d, id);
  d += ",\"restarts\":";
  util::putInt(d, c->restarts());
  d += ",\"error\":";
  util::putString(d, reason);
  d += "}";
  appendDiag(id, d);
  publishFinal(id, CampaignState::kFailed, reason);
}

void OptimizationServer::driverLoop() {
  while (true) {
    std::shared_ptr<Campaign> claimed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stopping_) {
        SteadyClock::time_point next_eligible{};
        const std::shared_ptr<Campaign> next = FairScheduler::pickNext(
            registry_.list(), SteadyClock::now(), &next_eligible);
        if (next == nullptr) {
          // Nothing runnable. If queued campaigns are merely inside their
          // restart backoff, sleep until the earliest becomes eligible.
          if (next_eligible != SteadyClock::time_point{})
            cv_.wait_until(lock, next_eligible);
          else
            cv_.wait(lock);
          continue;
        }
        // Claims happen only under mu_, so this cannot race another
        // driver; it can still lose to a concurrent pause/cancel, in
        // which case re-scan.
        if (next->beginStep()) {
          claimed = next;
          ++steps_in_flight_;
          break;
        }
      }
      if (claimed == nullptr) return;  // stopping
    }

    const std::string& id = claimed->spec().id;
    const auto t0 = SteadyClock::now();
    core::RoundOutcome outcome;
    std::string what;
    bool failed = false;
    try {
      maybeInjectChaos(*claimed);
      outcome = claimed->runStep();
    } catch (const std::exception& e) {
      failed = true;
      what = e.what();
    } catch (...) {
      failed = true;
      what = "unknown exception in campaign step";
    }
    const double step_seconds =
        std::chrono::duration<double>(SteadyClock::now() - t0).count();
    if (obs::metrics().enabled()) {
      // SLO latency: one aggregate histogram plus a per-campaign labeled
      // series (the "#k=v" suffix renders as a Prometheus label).
      obs::metrics().observe("slo.step_seconds", step_seconds);
      obs::metrics().observe("slo.step_seconds#campaign=" + id, step_seconds);
    }

    if (failed) {
      // Failure isolation: only THIS campaign restarts or fails; the
      // daemon, the drivers, and every co-tenant keep running.
      superviseFailure(claimed, what);
    } else {
      farm_.placeRound(id, outcome.job_seconds);
      const CampaignState st = claimed->endStep(outcome);
      ++steps_executed_;
      if (!outcome.resume_note.empty()) {
        std::string d = "{\"type\":\"journal\",\"id\":";
        util::putString(d, id);
        d += ",\"note\":";
        util::putString(d, outcome.resume_note);
        d += "}";
        appendDiag(id, d);
      }
      for (const std::string& note : outcome.recovery_notes) {
        std::string d = "{\"type\":\"recovery\",\"id\":";
        util::putString(d, id);
        d += ",\"round\":";
        util::putInt(d, outcome.round);
        d += ",\"note\":";
        util::putString(d, note);
        d += "}";
        appendDiag(id, d);
      }
      publish(roundEvent(id, outcome, step_seconds));
      if (terminal(st)) {
        publishFinal(id, st);
      } else if (st == CampaignState::kPaused) {
        publish(stateEvent(id, st));
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --steps_in_flight_;
    }
    notifyAll();  // re-queued work for other drivers / drain() progress
  }
}

void OptimizationServer::watchdogLoop() {
  // Tick at the finest enabled granularity (half-period for the deadline
  // and idle scans so an overrun is seen within ~1.5x its bound).
  double tick = 3600.0;
  if (opts_.heartbeat_seconds > 0.0) tick = std::min(tick, opts_.heartbeat_seconds);
  if (opts_.step_deadline_seconds > 0.0)
    tick = std::min(tick, opts_.step_deadline_seconds / 2.0);
  if (opts_.idle_timeout_seconds > 0.0)
    tick = std::min(tick, opts_.idle_timeout_seconds / 2.0);
  tick = std::max(tick, 0.005);
  auto last_heartbeat = SteadyClock::now();

  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::duration<double>(tick));
    if (stopping_) break;
    lock.unlock();

    const auto now = SteadyClock::now();
    if (opts_.heartbeat_seconds > 0.0 &&
        std::chrono::duration<double>(now - last_heartbeat).count() >=
            opts_.heartbeat_seconds) {
      last_heartbeat = now;
      publish(heartbeatEvent(
          registry_.size(), steps_executed_.load(), supervisionStats(),
          std::chrono::duration<double>(now - started_at_).count()));
    }
    if (opts_.step_deadline_seconds > 0.0) {
      for (const std::shared_ptr<Campaign>& c : registry_.list()) {
        const double secs = c->stepSeconds(now);
        if (secs > opts_.step_deadline_seconds && c->markStalled()) {
          ++stalled_steps_;
          const std::string& id = c->spec().id;
          std::string d = "{\"type\":\"stall\",\"id\":";
          util::putString(d, id);
          d += ",\"step_seconds\":";
          util::putDouble(d, secs);
          d += ",\"deadline_seconds\":";
          util::putDouble(d, opts_.step_deadline_seconds);
          d += "}";
          appendDiag(id, d);
          publish(stallEvent(id, secs, opts_.step_deadline_seconds));
        }
      }
    }
    if (opts_.idle_timeout_seconds > 0.0) {
      const std::int64_t cutoff_ms =
          nowMs() -
          static_cast<std::int64_t>(opts_.idle_timeout_seconds * 1000.0);
      std::lock_guard<std::mutex> conns_lock(conns_mu_);
      for (const std::shared_ptr<ConnState>& c : conns_) {
        if (c->subscribed.load() || c->last_active_ms.load() > cutoff_ms)
          continue;
        if (!c->reaped.exchange(true)) {
          // The reader thread wakes with EOF and retires the connection;
          // the latch keeps one idle socket from counting every tick.
          ::shutdown(c->fd, SHUT_RDWR);
          ++reaped_conns_;
        }
      }
    }
    lock.lock();
  }
}

void OptimizationServer::waitUntilStopped() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return stopping_ || !running_; });
}

void OptimizationServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    if (stopping_) return true;
    if (steps_in_flight_ > 0) return false;
    for (const std::shared_ptr<Campaign>& c : registry_.list()) {
      const CampaignState s = c->state();
      if (s == CampaignState::kQueued || s == CampaignState::kRunning)
        return false;
    }
    return true;
  });
}

bool OptimizationServer::submit(const CampaignSpec& spec, std::string* err,
                                bool* shed) {
  if (shed != nullptr) *shed = false;
  if (!validCampaignId(spec.id)) {
    if (err != nullptr) *err = "invalid campaign id";
    return false;
  }
  // Admission control: serialize the capacity check with the insert so two
  // racing submits cannot overshoot max_campaigns.
  std::lock_guard<std::mutex> admission_lock(admission_mu_);
  if (opts_.max_campaigns > 0) {
    std::size_t active = 0;
    for (const std::shared_ptr<Campaign>& c : registry_.list())
      if (!terminal(c->state())) ++active;
    if (active >= opts_.max_campaigns) {
      ++load_shed_;
      if (err != nullptr)
        *err = "server at capacity (" +
               std::to_string(opts_.max_campaigns) +
               " active campaigns): submission shed, retry later";
      if (shed != nullptr) *shed = true;
      return false;
    }
  }
  CampaignSpec s = spec;
  if (!opts_.journal_dir.empty())
    s.opts.checkpoint_path = journalPath(s.id, ".ckpt.json");
  // Daemon journaling policy: lenient resume — a torn or missing journal
  // quarantines/cold-starts the one campaign instead of refusing the whole
  // daemon start.
  s.opts.resume_lenient = true;

  std::shared_ptr<const hls::DesignSpace> space;
  try {
    std::lock_guard<std::mutex> lock(spaces_mu_);
    auto& slot = spaces_[s.benchmark];
    if (slot == nullptr) slot = makeSpaceFor(s.benchmark);
    space = slot;
  } catch (const std::exception& e) {
    if (err != nullptr) *err = e.what();
    return false;
  }

  core::SharedRuntime shared;
  shared.cache = &cache_;
  shared.pool = std::max(opts_.workers, 1);
  shared.cache_namespace = cacheNamespaceOf(s);
  shared.cache_ledger = cacheLedgerOf(s);
  std::shared_ptr<Campaign> campaign;
  try {
    campaign = std::make_shared<Campaign>(s, space, shared);
  } catch (const std::exception& e) {
    if (err != nullptr) *err = e.what();
    return false;
  }
  // Every add runs under admission_mu_, so the id is still free at add().
  // The spec is durable before the campaign exists: a submit whose spec
  // cannot be written is refused rather than run unresumably.
  if (registry_.get(s.id) != nullptr) {
    if (err != nullptr) *err = "duplicate campaign id";
    return false;
  }
  if (!s.opts.resume && !writeSpecFile(s)) {
    if (err != nullptr)
      *err = "cannot write spec file " + journalPath(s.id, ".spec.json");
    return false;
  }
  registry_.add(campaign);
  notifyAll();
  return true;
}

bool OptimizationServer::pause(const std::string& id, std::string* err) {
  const std::shared_ptr<Campaign> c = registry_.get(id);
  if (c == nullptr) {
    if (err != nullptr) *err = "unknown campaign id";
    return false;
  }
  if (!c->requestPause(err)) return false;
  if (c->state() == CampaignState::kPaused)
    publish(stateEvent(id, CampaignState::kPaused));
  return true;
}

bool OptimizationServer::resumeCampaign(const std::string& id,
                                        std::string* err) {
  const std::shared_ptr<Campaign> c = registry_.get(id);
  if (c == nullptr) {
    if (err != nullptr) *err = "unknown campaign id";
    return false;
  }
  if (!c->requestResume(err)) return false;
  notifyAll();
  return true;
}

bool OptimizationServer::cancel(const std::string& id, std::string* err) {
  const std::shared_ptr<Campaign> c = registry_.get(id);
  if (c == nullptr) {
    if (err != nullptr) *err = "unknown campaign id";
    return false;
  }
  if (!c->requestCancel(err)) return false;
  if (c->state() == CampaignState::kCancelled) {
    // Cancelled in place (was queued/paused); running ones finish their
    // round first and the driver publishes the transition.
    publishFinal(id, CampaignState::kCancelled);
  }
  notifyAll();
  return true;
}

std::shared_ptr<Campaign> OptimizationServer::campaign(
    const std::string& id) const {
  return registry_.get(id);
}

std::vector<StatusSnapshot> OptimizationServer::list() const {
  std::vector<StatusSnapshot> out;
  for (const std::shared_ptr<Campaign>& c : registry_.list())
    out.push_back(c->snapshot());
  return out;
}

SupervisionStats OptimizationServer::supervisionStats() const {
  SupervisionStats sup;
  sup.restarts = restarts_total_.load();
  sup.stalled_steps = stalled_steps_.load();
  sup.load_shed = load_shed_.load();
  sup.reaped_conns = reaped_conns_.load();
  sup.diag_dropped = diag_dropped_.load();
  return sup;
}

ServerStats OptimizationServer::stats() const {
  ServerStats s;
  s.cache = cache_.stats();
  s.farm_makespan_seconds = farm_.makespan();
  s.campaigns = registry_.size();
  s.steps_executed = steps_executed_.load();
  s.supervision = supervisionStats();
  return s;
}

int OptimizationServer::subscribe(EventSink sink) {
  auto sub = std::make_shared<Subscriber>();
  sub->sink = std::move(sink);
  std::lock_guard<std::mutex> lock(mu_);
  const int token = next_token_++;
  subscribers_[token] = std::move(sub);
  return token;
}

void OptimizationServer::unsubscribe(int token) {
  std::shared_ptr<Subscriber> sub;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = subscribers_.find(token);
    if (it == subscribers_.end()) return;
    sub = it->second;
    subscribers_.erase(it);
  }
  // Block until any in-flight delivery to this sink finishes, then bar
  // further ones: once unsubscribe() returns, the transport can safely
  // close the stream/fd the sink writes to.
  std::lock_guard<std::mutex> lock(sub->m);
  sub->active = false;
}

void OptimizationServer::publish(const std::string& line) {
  // Snapshot under mu_, deliver OUTSIDE it: one stalled subscriber socket
  // (blocking ::send into a full buffer) can only wedge its own deliveries,
  // never submit/pause/cancel, drain(), the other drivers, or stop().
  // Per-sink exclusion + the active flag preserve the unsubscribe contract
  // above; the class-comment contract still holds — sinks only write bytes,
  // never call back into the server.
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    subs.reserve(subscribers_.size());
    for (const auto& [token, sub] : subscribers_) subs.push_back(sub);
  }
  for (const std::shared_ptr<Subscriber>& sub : subs) {
    std::lock_guard<std::mutex> lock(sub->m);
    if (sub->active) sub->sink(line);
  }
}

// ------------------------------------------------------------- Journal ----

std::string OptimizationServer::journalPath(const std::string& id,
                                            const char* suffix) const {
  return (fs::path(opts_.journal_dir) / (id + suffix)).string();
}

bool OptimizationServer::writeSpecFile(const CampaignSpec& spec) const {
  return opts_.journal_dir.empty() ||
         util::writeFileAtomic(journalPath(spec.id, ".spec.json"),
                               specToJson(spec) + "\n");
}

void OptimizationServer::publishFinal(const std::string& id,
                                      CampaignState state,
                                      std::string error) {
  if (!opts_.journal_dir.empty()) {
    std::string s = "{\"id\":";
    util::putString(s, id);
    s += ",\"state\":";
    util::putString(s, stateName(state));
    s += "}\n";
    const std::string path = journalPath(id, ".final.json");
    if (!util::writeFileAtomic(path, s)) {
      if (!error.empty()) error += "; ";
      error += "cannot write final marker " + path;
    }
  }
  publish(stateEvent(id, state, error));
}

void OptimizationServer::appendDiag(const std::string& id,
                                    const std::string& line) const {
  if (opts_.journal_dir.empty()) return;
  std::lock_guard<std::mutex> lock(diag_mu_);
  std::ofstream out(journalPath(id, ".diag.jsonl"), std::ios::app);
  if (out) out << line << "\n" << std::flush;
  if (!out) ++diag_dropped_;
}

void OptimizationServer::resumeFromJournal() {
  const std::string kSpec = ".spec.json";
  std::vector<std::string> ids;
  for (const auto& entry : fs::directory_iterator(opts_.journal_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= kSpec.size() ||
        name.compare(name.size() - kSpec.size(), kSpec.size(), kSpec) != 0)
      continue;
    ids.push_back(name.substr(0, name.size() - kSpec.size()));
  }
  std::sort(ids.begin(), ids.end());  // deterministic re-submit order
  const auto readAll = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  for (const std::string& id : ids) {
    const std::string final_path = journalPath(id, ".final.json");
    if (fs::exists(final_path)) {
      // Trust the final marker only when it actually parses: an empty or
      // torn one means the daemon died mid-write, so the campaign is NOT
      // reliably finished — warn and re-queue it from its spec.
      util::Json fj;
      std::string ferr;
      if (util::parseJson(readAll(final_path), &fj, &ferr) &&
          fj.kind == util::Json::kObj && !fj.strOr("state", "").empty())
        continue;  // genuinely finished
      std::string d = "{\"type\":\"resume_warning\",\"id\":";
      util::putString(d, id);
      d += ",\"note\":\"final marker unreadable; re-queued from spec\"}";
      appendDiag(id, d);
    }
    util::Json j;
    CampaignSpec spec;
    std::string err;
    if (!util::parseJson(readAll(journalPath(id, ".spec.json")), &j, &err) ||
        !specFromJson(j, &spec, &err)) {
      // A corrupt spec must not take the whole daemon down: log and skip.
      std::string d = "{\"type\":\"resume_warning\",\"id\":";
      util::putString(d, id);
      d += ",\"note\":";
      util::putString(d, "corrupt spec file, campaign skipped: " + err);
      d += "}";
      appendDiag(id, d);
      continue;
    }
    spec.opts.resume = true;  // pick the trajectory up from <id>.ckpt.json
    if (!submit(spec, &err)) {
      std::string d = "{\"type\":\"resume_warning\",\"id\":";
      util::putString(d, id);
      d += ",\"note\":";
      util::putString(d, "re-submit failed: " + err);
      d += "}";
      appendDiag(id, d);
    }
    // A missing, empty, or torn <id>.ckpt.json is handled downstream by
    // the lenient resume: the optimizer rolls back to the last intact
    // frame or cold-starts, and its resume_note lands in <id>.diag.jsonl.
  }
}

// ------------------------------------------------------- Line protocol ----

std::string OptimizationServer::handleLine(const std::string& line,
                                           const EventSink& sink, bool* quit,
                                           int* sub_token) {
  Request req;
  std::string err;
  if (!parseRequest(line, &req, &err)) return errorResponse(err);

  if (req.op == "submit") {
    CampaignSpec spec;
    if (!specFromJson(req.body, &spec, &err)) return errorResponse(err);
    bool shed = false;
    if (!submit(spec, &err, &shed))
      return shed ? shedResponse(err) : errorResponse(err);
    return okResponse();
  }
  if (req.op == "status") {
    const std::shared_ptr<Campaign> c = campaign(req.id);
    if (c == nullptr) return errorResponse("unknown campaign id");
    return statusResponse(c->snapshot());
  }
  if (req.op == "list") return listResponse(list());
  if (req.op == "metrics")
    return metricsResponse(obs::metrics().snapshot(),
                           obs::tracer().droppedCount(),
                           obs::metrics().enabled());
  if (req.op == "stats") {
    const ServerStats st = stats();
    return statsResponse(st.cache, list(), st.farm_makespan_seconds,
                         st.supervision);
  }
  if (req.op == "pause")
    return pause(req.id, &err) ? okResponse() : errorResponse(err);
  if (req.op == "resume")
    return resumeCampaign(req.id, &err) ? okResponse() : errorResponse(err);
  if (req.op == "cancel")
    return cancel(req.id, &err) ? okResponse() : errorResponse(err);
  if (req.op == "subscribe") {
    if (!sink) return errorResponse("transport does not support events");
    const int token = subscribe(sink);
    if (sub_token != nullptr) *sub_token = token;
    return okResponse();
  }
  if (req.op == "drain") {
    drain();
    return okResponse();
  }
  if (req.op == "shutdown") {
    if (quit != nullptr) *quit = true;
    return okResponse();
  }
  return errorResponse("unknown op: " + req.op);
}

void OptimizationServer::serveStdio(std::istream& in, std::ostream& out) {
  const auto out_mu = std::make_shared<std::mutex>();
  const EventSink sink = [&out, out_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(*out_mu);
    out << line << "\n";
    out.flush();
  };
  int sub_token = -1;
  bool quit = false;
  std::string line;
  while (!quit && std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string resp =
        line.size() > opts_.max_line_bytes
            ? errorResponse("request line exceeds max_line_bytes (" +
                            std::to_string(opts_.max_line_bytes) + ")")
            : handleLine(line, sink, &quit, &sub_token);
    std::lock_guard<std::mutex> lock(*out_mu);
    out << resp << "\n";
    out.flush();
  }
  // Drop the subscription before `out` goes out of the caller's scope.
  if (sub_token >= 0) unsubscribe(sub_token);
  if (quit) stop();
}

int OptimizationServer::bindLoopback(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = static_cast<int>(ntohs(addr.sin_port));
  return fd;
}

int OptimizationServer::listenTcp(int port) {
  int bound = -1;
  const int fd = bindLoopback(port, &bound);
  if (fd < 0) return -1;
  listen_fd_.store(fd);
  accept_thread_ = std::thread([this] { acceptLoop(); });
  return bound;
}

int OptimizationServer::listenMetricsHttp(int port) {
  int bound = -1;
  const int fd = bindLoopback(port, &bound);
  if (fd < 0) return -1;
  metrics_listen_fd_.store(fd);
  metrics_accept_thread_ = std::thread([this] { metricsAcceptLoop(); });
  return bound;
}

void OptimizationServer::metricsAcceptLoop() {
  while (true) {
    const int lfd = metrics_listen_fd_.load();
    if (lfd < 0) return;
    const int conn = ::accept(lfd, nullptr, nullptr);
    if (conn < 0) return;  // listener closed by stop()
    // One scrape per connection, served inline: read the request head,
    // answer, hang up. The endpoint is read-only and the body is small, so
    // a per-connection thread would buy nothing.
    std::string head;
    char chunk[4096];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos && head.size() < 65536) {
      const ssize_t n = ::read(conn, chunk, sizeof(chunk));
      if (n <= 0) break;
      head.append(chunk, static_cast<std::size_t>(n));
    }
    const auto line_end = head.find_first_of("\r\n");
    const std::string req_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    const bool is_get = req_line.compare(0, 4, "GET ") == 0;
    const std::string target =
        is_get ? req_line.substr(4, req_line.find(' ', 4) - 4) : "";
    const std::string path = target.substr(0, target.find('?'));
    std::string resp;
    if (is_get && (path == "/metrics" || path == "/")) {
      const std::string body = obs::toPrometheusText(
          obs::metrics().snapshot(), obs::tracer().droppedCount());
      resp = "HTTP/1.1 200 OK\r\n"
             "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
             "Content-Length: " + std::to_string(body.size()) +
             "\r\nConnection: close\r\n\r\n" + body;
    } else {
      resp = "HTTP/1.1 404 Not Found\r\n"
             "Content-Length: 0\r\nConnection: close\r\n\r\n";
    }
    (void)::send(conn, resp.data(), resp.size(), MSG_NOSIGNAL);
    ::close(conn);
  }
}

void OptimizationServer::acceptLoop() {
  while (true) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) return;
    const int conn = ::accept(lfd, nullptr, nullptr);
    if (conn < 0) return;  // listener closed by stop()
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (conns_stopping_) {
      // Lost the race with requestStop()'s shutdown sweep: this fd would
      // never be shut down and its reader never joined. Refuse it.
      ::close(conn);
      continue;
    }
    auto state = std::make_shared<ConnState>();
    state->fd = conn;
    state->last_active_ms.store(nowMs());
    conns_.push_back(state);
    conn_threads_.emplace_back([this, state] { serveFd(state); });
  }
}

void OptimizationServer::serveFd(const std::shared_ptr<ConnState>& conn) {
  const int fd = conn->fd;
  const auto write_mu = std::make_shared<std::mutex>();
  const auto writeLine = [fd, write_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(*write_mu);
    std::string msg = line + "\n";
    // Best effort: a peer that hung up just stops receiving events.
    (void)::send(fd, msg.data(), msg.size(), MSG_NOSIGNAL);
  };
  int sub_token = -1;
  bool quit = false;
  std::string buf;
  char chunk[4096];
  while (!quit) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    conn->last_active_ms.store(nowMs());
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while (!quit && (pos = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, pos);
      buf.erase(0, pos + 1);
      if (line.empty()) continue;
      if (line.size() > opts_.max_line_bytes) {
        // A complete-but-oversized request: answer and resync at the
        // newline we already found.
        writeLine(errorResponse("request line exceeds max_line_bytes (" +
                                std::to_string(opts_.max_line_bytes) + ")"));
        continue;
      }
      writeLine(handleLine(line, writeLine, &quit, &sub_token));
      if (sub_token >= 0) conn->subscribed.store(true);
    }
    if (buf.size() > opts_.max_line_bytes) {
      // A newline-free buffer past the bound is a hostile or broken peer:
      // there is no frame boundary left to resync on, so hang up.
      writeLine(errorResponse(
          "unterminated request exceeds max_line_bytes; closing connection"));
      break;
    }
  }
  if (sub_token >= 0) unsubscribe(sub_token);
  {
    // Retire the fd from the shutdown sweep's ledger before closing it, so
    // requestStop() cannot shut down a recycled descriptor number.
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [&](const std::shared_ptr<ConnState>& c) {
                                  return c.get() == conn.get();
                                }),
                 conns_.end());
  }
  ::close(fd);
  // The shutdown op only INITIATES the stop from a connection thread; the
  // joining happens in stop(), typically on the main thread parked in
  // waitUntilStopped() — a connection thread never joins itself.
  if (quit) requestStop();
}

}  // namespace cmmfo::server
