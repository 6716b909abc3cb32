#include "server/protocol.h"

namespace cmmfo::server {

bool parseRequest(const std::string& line, Request* out, std::string* err) {
  util::Json j;
  std::string perr;
  if (!util::parseJson(line, &j, &perr)) {
    if (err != nullptr) *err = "malformed JSON: " + perr;
    return false;
  }
  if (j.kind != util::Json::kObj) {
    if (err != nullptr) *err = "request must be a JSON object";
    return false;
  }
  Request r;
  r.op = j.strOr("op", "");
  if (r.op.empty()) {
    if (err != nullptr) *err = "missing \"op\"";
    return false;
  }
  r.id = j.strOr("id", "");
  r.body = std::move(j);
  *out = std::move(r);
  return true;
}

std::string okResponse() { return "{\"ok\":true}"; }

std::string errorResponse(const std::string& error) {
  std::string s = "{\"ok\":false,\"error\":";
  util::putString(s, error);
  s += "}";
  return s;
}

std::string shedResponse(const std::string& error) {
  std::string s = "{\"ok\":false,\"shed\":true,\"error\":";
  util::putString(s, error);
  s += "}";
  return s;
}

namespace {

void putStatusBody(std::string& s, const StatusSnapshot& st) {
  s += "{\"id\":";
  util::putString(s, st.id);
  s += ",\"state\":";
  util::putString(s, stateName(st.state));
  s += ",\"rounds\":";
  util::putInt(s, st.rounds);
  s += ",\"proposals\":";
  util::putInt(s, st.proposals);
  s += ",\"charged_seconds\":";
  util::putDouble(s, st.charged_seconds);
  s += ",\"wall_seconds\":";
  util::putDouble(s, st.wall_seconds);
  s += ",\"cache_hits\":";
  util::putU64Bare(s, st.cache_hits);
  s += ",\"cache_misses\":";
  util::putU64Bare(s, st.cache_misses);
  s += ",\"hypervolume\":";
  util::putDoubleOrNull(s, st.hypervolume);
  s += ",\"weight\":";
  util::putDouble(s, st.weight);
  s += ",\"restarts\":";
  util::putInt(s, st.restarts);
  s += ",\"resumed\":";
  s += st.resumed ? "true" : "false";
  if (!st.error.empty()) {
    s += ",\"error\":";
    util::putString(s, st.error);
  }
  s += "}";
}

}  // namespace

std::string statusResponse(const StatusSnapshot& st) {
  std::string s = "{\"ok\":true,\"campaign\":";
  putStatusBody(s, st);
  s += "}";
  return s;
}

std::string listResponse(const std::vector<StatusSnapshot>& all) {
  std::string s = "{\"ok\":true,\"campaigns\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) s += ",";
    putStatusBody(s, all[i]);
  }
  s += "]}";
  return s;
}

std::string statsResponse(const runtime::EvalCache::Stats& cache,
                          const std::vector<StatusSnapshot>& all,
                          double farm_makespan, const SupervisionStats& sup) {
  int by_state[6] = {0, 0, 0, 0, 0, 0};
  for (const StatusSnapshot& st : all) ++by_state[static_cast<int>(st.state)];
  std::string s = "{\"ok\":true,\"cache\":{\"entries\":";
  util::putU64Bare(s, cache.entries);
  s += ",\"flows\":";
  util::putU64Bare(s, cache.flows);
  s += ",\"hits\":";
  util::putU64Bare(s, cache.hits);
  s += ",\"misses\":";
  util::putU64Bare(s, cache.misses);
  s += ",\"evictions\":";
  util::putU64Bare(s, cache.evictions);
  s += "},\"campaigns\":{";
  static constexpr CampaignState kStates[] = {
      CampaignState::kQueued,    CampaignState::kRunning,
      CampaignState::kPaused,    CampaignState::kDone,
      CampaignState::kCancelled, CampaignState::kFailed};
  for (std::size_t i = 0; i < 6; ++i) {
    if (i > 0) s += ",";
    util::putString(s, stateName(kStates[i]));
    s += ":";
    util::putInt(s, by_state[static_cast<int>(kStates[i])]);
  }
  s += "},\"farm_makespan_seconds\":";
  util::putDouble(s, farm_makespan);
  s += ",\"supervision\":{\"restarts\":";
  util::putU64Bare(s, sup.restarts);
  s += ",\"stalled_steps\":";
  util::putU64Bare(s, sup.stalled_steps);
  s += ",\"load_shed\":";
  util::putU64Bare(s, sup.load_shed);
  s += ",\"reaped_conns\":";
  util::putU64Bare(s, sup.reaped_conns);
  s += ",\"diag_dropped\":";
  util::putU64Bare(s, sup.diag_dropped);
  s += "}}";
  return s;
}

std::string metricsResponse(const obs::MetricsSnapshot& snap,
                            std::uint64_t trace_dropped, bool enabled) {
  std::string s = "{\"ok\":true,\"enabled\":";
  s += enabled ? "true" : "false";
  s += ",\"trace_dropped\":";
  util::putU64Bare(s, trace_dropped);
  s += ",\"metrics\":[";
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const obs::MetricPoint& p = snap[i];
    if (i > 0) s += ",";
    s += "{\"name\":";
    util::putString(s, p.name);
    s += ",\"kind\":";
    switch (p.kind) {
      case obs::MetricKind::kCounter:
        s += "\"counter\"";
        break;
      case obs::MetricKind::kGauge:
        s += "\"gauge\"";
        break;
      case obs::MetricKind::kHistogram:
        s += "\"histogram\"";
        break;
    }
    if (p.kind == obs::MetricKind::kHistogram) {
      s += ",\"count\":";
      util::putU64Bare(s, p.count);
      s += ",\"sum\":";
      util::putDoubleOrNull(s, p.sum);
      s += ",\"min\":";
      util::putDoubleOrNull(s, p.min);
      s += ",\"max\":";
      util::putDoubleOrNull(s, p.max);
      s += ",\"bounds\":[";
      for (std::size_t b = 0; b < p.bounds.size(); ++b) {
        if (b > 0) s += ",";
        util::putDoubleOrNull(s, p.bounds[b]);
      }
      s += "],\"buckets\":[";
      for (std::size_t b = 0; b < p.buckets.size(); ++b) {
        if (b > 0) s += ",";
        util::putU64Bare(s, p.buckets[b]);
      }
      s += "]";
    } else {
      s += ",\"value\":";
      util::putDoubleOrNull(s, p.value);
    }
    s += "}";
  }
  s += "]}";
  return s;
}

std::string roundEvent(const std::string& id, const core::RoundOutcome& o,
                       double step_seconds) {
  std::string s = "{\"event\":\"round\",\"id\":";
  util::putString(s, id);
  s += ",\"round\":";
  util::putInt(s, o.round);
  s += ",\"proposals\":";
  util::putInt(s, o.proposals);
  s += ",\"done\":";
  s += o.done ? "true" : "false";
  s += ",\"charged_seconds\":";
  util::putDouble(s, o.charged_seconds);
  s += ",\"round_charged_seconds\":";
  util::putDouble(s, o.round_charged_seconds);
  s += ",\"wall_seconds\":";
  util::putDouble(s, o.wall_seconds);
  s += ",\"cache_hits\":";
  util::putU64Bare(s, o.cache_hits);
  s += ",\"cache_misses\":";
  util::putU64Bare(s, o.cache_misses);
  s += ",\"hypervolume\":";
  util::putDoubleOrNull(s, o.hypervolume);
  s += ",\"step_seconds\":";
  util::putDouble(s, step_seconds);
  s += "}";
  return s;
}

std::string restartEvent(const std::string& id, int restarts,
                         double backoff_ms, const std::string& error) {
  std::string s = "{\"event\":\"restart\",\"id\":";
  util::putString(s, id);
  s += ",\"restarts\":";
  util::putInt(s, restarts);
  s += ",\"backoff_ms\":";
  util::putDouble(s, backoff_ms);
  s += ",\"error\":";
  util::putString(s, error);
  s += "}";
  return s;
}

std::string stallEvent(const std::string& id, double step_seconds,
                       double deadline_seconds) {
  std::string s = "{\"event\":\"stall\",\"id\":";
  util::putString(s, id);
  s += ",\"step_seconds\":";
  util::putDouble(s, step_seconds);
  s += ",\"deadline_seconds\":";
  util::putDouble(s, deadline_seconds);
  s += "}";
  return s;
}

std::string heartbeatEvent(std::size_t campaigns, std::size_t steps_executed,
                           const SupervisionStats& sup,
                           double uptime_seconds) {
  std::string s = "{\"event\":\"heartbeat\",\"campaigns\":";
  util::putU64Bare(s, campaigns);
  s += ",\"steps_executed\":";
  util::putU64Bare(s, steps_executed);
  s += ",\"restarts\":";
  util::putU64Bare(s, sup.restarts);
  s += ",\"stalled_steps\":";
  util::putU64Bare(s, sup.stalled_steps);
  s += ",\"load_shed\":";
  util::putU64Bare(s, sup.load_shed);
  s += ",\"reaped_conns\":";
  util::putU64Bare(s, sup.reaped_conns);
  s += ",\"diag_dropped\":";
  util::putU64Bare(s, sup.diag_dropped);
  s += ",\"uptime_seconds\":";
  util::putDouble(s, uptime_seconds);
  s += "}";
  return s;
}

std::string stateEvent(const std::string& id, CampaignState state,
                       const std::string& error) {
  std::string s = "{\"event\":\"state\",\"id\":";
  util::putString(s, id);
  s += ",\"state\":";
  util::putString(s, stateName(state));
  if (!error.empty()) {
    s += ",\"error\":";
    util::putString(s, error);
  }
  s += "}";
  return s;
}

}  // namespace cmmfo::server
