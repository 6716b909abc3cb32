#pragma once

#include <string>
#include <vector>

#include "core/optimizer.h"
#include "obs/metrics.h"
#include "runtime/eval_cache.h"
#include "server/campaign.h"
#include "util/json.h"

namespace cmmfo::server {

/// Newline-delimited JSON line protocol (one request line in, one response
/// line out; subscribed connections additionally receive event lines).
///
/// Requests:  {"op":"submit","id":"c1","benchmark":"spmv_crs","seed":7,...}
///            {"op":"status"|"pause"|"resume"|"cancel","id":"c1"}
///            {"op":"list"} {"op":"stats"} {"op":"subscribe"}
///            {"op":"drain"} {"op":"shutdown"}
/// Responses: {"ok":true,...} | {"ok":false,"error":"..."}
/// Events:    {"event":"round","id":"c1","round":3,...}
///            {"event":"state","id":"c1","state":"done"}
struct Request {
  std::string op;
  std::string id;    ///< empty for ops that take none
  util::Json body;   ///< the full parsed request (submit reads spec keys)
};

/// Parse one request line. False (with `err`) on malformed JSON, a missing
/// or non-string "op", or a non-object payload — the server answers with an
/// error response and keeps the connection.
bool parseRequest(const std::string& line, Request* out, std::string* err);

/// Supervision counters carried in stats responses and heartbeat events.
struct SupervisionStats {
  std::size_t restarts = 0;       ///< supervised campaign restarts
  std::size_t stalled_steps = 0;  ///< watchdog deadline overruns reported
  std::size_t load_shed = 0;      ///< submissions refused at capacity
  std::size_t reaped_conns = 0;   ///< idle connections shut down
  std::size_t diag_dropped = 0;   ///< <id>.diag.jsonl records not written
};

// ---- Response/event builders (each returns one line, no trailing \n). ----
std::string okResponse();
std::string errorResponse(const std::string& error);
/// Load-shed reply: an error frame with "shed":true so clients can
/// distinguish "retry later" from a malformed request.
std::string shedResponse(const std::string& error);
std::string statusResponse(const StatusSnapshot& s);
/// {"ok":true,"campaigns":[<status>...]} in id order.
std::string listResponse(const std::vector<StatusSnapshot>& all);
/// Shared-runtime stats: cache ledger plus campaign counts by state and
/// the supervision counters.
std::string statsResponse(const runtime::EvalCache::Stats& cache,
                          const std::vector<StatusSnapshot>& all,
                          double farm_makespan,
                          const SupervisionStats& sup = {});
/// The live metrics registry as one JSON line: every point with its kind
/// ("counter"/"gauge"/"histogram"), value or count/sum/min/max plus bucket
/// layout, the tracer's drop counter, and whether the registry is enabled
/// at all (when disabled the list is whatever was last recorded — usually
/// empty).
std::string metricsResponse(const obs::MetricsSnapshot& snap,
                            std::uint64_t trace_dropped, bool enabled);
/// Streamed once per executed campaign step. `step_seconds` is the real
/// (host) time the step took inside the driver.
std::string roundEvent(const std::string& id, const core::RoundOutcome& o,
                       double step_seconds);
std::string stateEvent(const std::string& id, CampaignState state,
                       const std::string& error = "");
/// Streamed when supervision re-queues a failed campaign: which restart
/// attempt this is, the backoff before it becomes runnable, and the error
/// that triggered it.
std::string restartEvent(const std::string& id, int restarts,
                         double backoff_ms, const std::string& error);
/// Streamed when the watchdog sees a step exceed its deadline (once per
/// in-flight step).
std::string stallEvent(const std::string& id, double step_seconds,
                       double deadline_seconds);
/// Periodic daemon liveness record on the event stream.
std::string heartbeatEvent(std::size_t campaigns, std::size_t steps_executed,
                           const SupervisionStats& sup,
                           double uptime_seconds);

}  // namespace cmmfo::server
