#include "core/checkpoint.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/framed_log.h"
#include "util/json.h"

namespace cmmfo::core {

namespace {

// The writer/parser core lives in util/json (shared with the observability
// and diagnostics dumps): %.17g doubles round-trip IEEE-754 binary64
// exactly, which is what makes resumed trajectories bit-identical; 64-bit
// integers are written as quoted strings (JSON numbers are doubles; 2^53
// would truncate RNG words).
using util::getU64;
using util::getVec;
using util::Json;
using util::putDouble;
using util::putInt;
using util::putString;
using util::putU64;
using util::putVec;

void putReport(std::string& out, const sim::Report& r) {
  out += '[';
  out += r.valid ? "true" : "false";
  for (const double v : {r.power_w, r.delay_us, r.lut_util, r.latency_cycles,
                         r.clock_ns, r.tool_seconds}) {
    out += ',';
    putDouble(out, v);
  }
  out += ']';
}

bool getReport(const Json& j, sim::Report& r) {
  if (j.kind != Json::kArr || j.arr.size() != 7) return false;
  if (j.arr[0].kind != Json::kBool) return false;
  r.valid = j.arr[0].b;
  for (int i = 1; i < 7; ++i)
    if (j.arr[i].kind != Json::kNum) return false;
  r.power_w = j.arr[1].num;
  r.delay_us = j.arr[2].num;
  r.lut_util = j.arr[3].num;
  r.latency_cycles = j.arr[4].num;
  r.clock_ns = j.arr[5].num;
  r.tool_seconds = j.arr[6].num;
  return true;
}

}  // namespace

std::string serializeCheckpoint(const CheckpointState& st) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\n\"version\": ";
  putInt(out, st.version);
  out += ",\n\"fingerprint\": ";
  putU64(out, st.fingerprint);
  out += ",\n\"next_round\": ";
  putInt(out, st.next_round);
  out += ",\n\"t\": ";
  putInt(out, st.t);

  out += ",\n\"rng\": {\"s\": [";
  for (int i = 0; i < 4; ++i) {
    if (i) out += ',';
    putU64(out, st.rng.s[i]);
  }
  out += "], \"has_cached_normal\": ";
  out += st.rng.has_cached_normal ? "true" : "false";
  out += ", \"cached_normal\": ";
  putDouble(out, st.rng.cached_normal);
  out += "}";

  out += ",\n\"data\": [";
  for (int f = 0; f < sim::kNumFidelities; ++f) {
    if (f) out += ',';
    out += "\n{\"configs\": [";
    const auto& d = st.data[f];
    for (std::size_t i = 0; i < d.configs.size(); ++i) {
      if (i) out += ',';
      putInt(out, static_cast<long long>(d.configs[i]));
    }
    out += "], \"y\": [";
    for (std::size_t i = 0; i < d.y.size(); ++i) {
      if (i) out += ',';
      putVec(out, d.y[i]);
    }
    out += "]}";
  }
  out += "]";

  out += ",\n\"cs\": [";
  for (std::size_t i = 0; i < st.cs.size(); ++i) {
    if (i) out += ',';
    out += "\n[";
    putInt(out, static_cast<long long>(st.cs[i].config));
    out += ',';
    putInt(out, st.cs[i].fidelity);
    out += ',';
    putReport(out, st.cs[i].report);
    out += ']';
  }
  out += "]";

  out += ",\n\"iterations\": [";
  for (std::size_t i = 0; i < st.iterations.size(); ++i) {
    const auto& it = st.iterations[i];
    if (i) out += ',';
    out += "\n[";
    putInt(out, it.iteration);
    out += ',';
    putInt(out, it.fidelity);
    out += ',';
    putInt(out, static_cast<long long>(it.config));
    out += ',';
    putDouble(out, it.peipv);
    out += ',';
    putInt(out, it.round);
    out += ']';
  }
  out += "]";

  out += ",\n\"picks_per_fidelity\": [";
  for (int f = 0; f < sim::kNumFidelities; ++f) {
    if (f) out += ',';
    putInt(out, st.picks_per_fidelity[f]);
  }
  out += "]";

  out += ",\n\"totals\": {";
  out += "\"charged_seconds\": ";
  putDouble(out, st.totals.charged_seconds);
  out += ", \"wall_seconds\": ";
  putDouble(out, st.totals.wall_seconds);
  out += ", \"tool_runs\": ";
  putInt(out, st.totals.tool_runs);
  out += ", \"cache_hits\": ";
  putInt(out, st.totals.cache_hits);
  out += ", \"attempts\": ";
  putInt(out, st.totals.attempts);
  out += ", \"transient_failures\": ";
  putInt(out, st.totals.transient_failures);
  out += ", \"timeouts\": ";
  putInt(out, st.totals.timeouts);
  out += ", \"persistent_failures\": ";
  putInt(out, st.totals.persistent_failures);
  out += ", \"degraded_jobs\": ";
  putInt(out, st.totals.degraded_jobs);
  out += ", \"retry_seconds_wasted\": ";
  putDouble(out, st.totals.retry_seconds_wasted);
  out += ", \"backoff_seconds\": ";
  putDouble(out, st.totals.backoff_seconds);
  out += "}";

  out += ",\n\"sim_tool_seconds\": ";
  putDouble(out, st.sim_tool_seconds);

  // Optional: journaled only when the async pipeline has jobs in flight,
  // so synchronous-mode journals are byte-identical to before the key
  // existed.
  if (!st.async_inflight.empty()) {
    out += ",\n\"async_inflight\": [";
    for (std::size_t i = 0; i < st.async_inflight.size(); ++i) {
      const auto& e = st.async_inflight[i];
      if (i) out += ',';
      out += "\n[";
      putInt(out, static_cast<long long>(e.config));
      out += ',';
      putInt(out, e.fidelity);
      out += ',';
      putDouble(out, e.sim_start);
      out += ']';
    }
    out += "]";
  }

  out += ",\n\"cache\": [";
  for (std::size_t i = 0; i < st.cache.size(); ++i) {
    if (i) out += ',';
    out += '[';
    putInt(out, static_cast<long long>(st.cache[i].first));
    out += ',';
    putInt(out, st.cache[i].second);
    out += ']';
  }
  out += "]";
  out += ",\n\"cache_hits\": ";
  putU64(out, st.cache_hits);
  out += ",\n\"cache_misses\": ";
  putU64(out, st.cache_misses);

  out += ",\n\"surrogate_hypers\": [";
  for (std::size_t i = 0; i < st.surrogate_hypers.size(); ++i) {
    if (i) out += ',';
    out += '\n';
    putVec(out, st.surrogate_hypers[i]);
  }
  out += "]";

  out += ",\n\"surrogate_base\": [";
  for (std::size_t i = 0; i < st.surrogate_base.size(); ++i) {
    if (i) out += ',';
    putU64(out, st.surrogate_base[i]);
  }
  out += "]";

  out += ",\n\"surrogate_mle_streak\": [";
  for (std::size_t i = 0; i < st.surrogate_mle_streak.size(); ++i) {
    if (i) out += ',';
    putInt(out, st.surrogate_mle_streak[i]);
  }
  out += "]";

  out += ",\n\"surrogate_fallback_n\": [";
  for (std::size_t i = 0; i < st.surrogate_fallback_n.size(); ++i) {
    if (i) out += ',';
    putU64(out, st.surrogate_fallback_n[i]);
  }
  out += "]";

  // Metric names stay within [A-Za-z0-9._] by convention, so no escaping.
  out += ",\n\"metrics\": [";
  for (std::size_t i = 0; i < st.metrics.size(); ++i) {
    const obs::MetricPoint& p = st.metrics[i];
    if (i) out += ',';
    out += "\n{\"name\": \"" + p.name + "\", \"kind\": ";
    putInt(out, static_cast<int>(p.kind));
    out += ", \"value\": ";
    putDouble(out, p.value);
    out += ", \"count\": ";
    putU64(out, p.count);
    out += ", \"sum\": ";
    putDouble(out, p.sum);
    out += ", \"min\": ";
    putDouble(out, p.min);
    out += ", \"max\": ";
    putDouble(out, p.max);
    out += ", \"bounds\": ";
    putVec(out, p.bounds);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < p.buckets.size(); ++b) {
      if (b) out += ',';
      putU64(out, p.buckets[b]);
    }
    out += "]}";
  }
  out += "]";

  // Optional: the flight recorder's checkpointable digest (calibration
  // aggregates + counters + health warnings). Absent when diagnostics are
  // disabled, so undiagnosed journals are unchanged byte-for-byte.
  if (st.has_diag) {
    const obs::DiagState& dg = st.diag;
    out += ",\n\"diag\": {\"agg\": [";
    for (int l = 0; l < obs::kNumLevels; ++l) {
      if (l) out += ',';
      out += '[';
      for (int m = 0; m < obs::kNumObjectives; ++m) {
        const obs::CalibrationAgg& a = dg.agg[l][m];
        if (m) out += ',';
        out += '[';
        putInt(out, a.n);
        out += ',';
        putInt(out, a.n_in95);
        out += ',';
        putDouble(out, a.nlpd_sum);
        out += ',';
        putDouble(out, a.resid_sum);
        out += ',';
        putDouble(out, a.resid_sq_sum);
        out += ']';
      }
      out += ']';
    }
    out += "], \"rounds\": ";
    putInt(out, dg.rounds);
    out += ", \"samples\": ";
    putInt(out, dg.samples);
    out += ", \"decisions\": ";
    putInt(out, dg.decisions);
    out += ", \"warnings\": [";
    for (std::size_t i = 0; i < dg.warnings.size(); ++i) {
      const obs::HealthWarning& w = dg.warnings[i];
      if (i) out += ',';
      out += "\n{\"kind\": ";
      putInt(out, static_cast<int>(w.kind));
      out += ", \"round\": ";
      putInt(out, w.round);
      out += ", \"fidelity\": ";
      putInt(out, w.fidelity);
      out += ", \"value\": ";
      putDouble(out, w.value);
      out += ", \"threshold\": ";
      putDouble(out, w.threshold);
      out += ", \"message\": ";
      putString(out, w.message);
      out += '}';
    }
    out += "]}";
  }

  out += "\n}\n";
  return out;
}

bool parseCheckpoint(const std::string& text, CheckpointState* out,
                     std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  Json root;
  std::string parse_error;
  if (!util::parseJson(text, &root, &parse_error) || root.kind != Json::kObj)
    return fail("checkpoint: invalid JSON: " + parse_error);

  CheckpointState st;
  const Json* v = root.find("version");
  if (!v || v->kind != Json::kNum) return fail("checkpoint: missing version");
  st.version = static_cast<int>(v->num);
  if (st.version != CheckpointState::kVersion)
    return fail("checkpoint: unsupported version " +
                std::to_string(st.version));

  if (const Json* j = root.find("fingerprint")) {
    if (!getU64(*j, st.fingerprint)) return fail("checkpoint: bad fingerprint");
  }
  if (const Json* j = root.find("next_round"); j && j->kind == Json::kNum)
    st.next_round = static_cast<int>(j->num);
  if (const Json* j = root.find("t"); j && j->kind == Json::kNum)
    st.t = static_cast<int>(j->num);

  const Json* rng = root.find("rng");
  if (!rng || rng->kind != Json::kObj) return fail("checkpoint: missing rng");
  {
    const Json* s = rng->find("s");
    if (!s || s->kind != Json::kArr || s->arr.size() != 4)
      return fail("checkpoint: bad rng state");
    for (int i = 0; i < 4; ++i)
      if (!getU64(s->arr[i], st.rng.s[i]))
        return fail("checkpoint: bad rng word");
    if (const Json* j = rng->find("has_cached_normal");
        j && j->kind == Json::kBool)
      st.rng.has_cached_normal = j->b;
    if (const Json* j = rng->find("cached_normal"); j && j->kind == Json::kNum)
      st.rng.cached_normal = j->num;
  }

  const Json* data = root.find("data");
  if (!data || data->kind != Json::kArr ||
      data->arr.size() != sim::kNumFidelities)
    return fail("checkpoint: missing data");
  for (int f = 0; f < sim::kNumFidelities; ++f) {
    const Json& d = data->arr[f];
    if (d.kind != Json::kObj) return fail("checkpoint: bad data entry");
    const Json* configs = d.find("configs");
    const Json* y = d.find("y");
    if (!configs || configs->kind != Json::kArr || !y || y->kind != Json::kArr ||
        configs->arr.size() != y->arr.size())
      return fail("checkpoint: bad data entry");
    for (const Json& c : configs->arr) {
      if (c.kind != Json::kNum) return fail("checkpoint: bad config id");
      st.data[f].configs.push_back(static_cast<std::size_t>(c.num));
    }
    for (const Json& row : y->arr) {
      std::vector<double> vec;
      if (!getVec(row, vec)) return fail("checkpoint: bad objective row");
      st.data[f].y.push_back(std::move(vec));
    }
  }

  const Json* cs = root.find("cs");
  if (!cs || cs->kind != Json::kArr) return fail("checkpoint: missing cs");
  for (const Json& e : cs->arr) {
    if (e.kind != Json::kArr || e.arr.size() != 3 ||
        e.arr[0].kind != Json::kNum || e.arr[1].kind != Json::kNum)
      return fail("checkpoint: bad cs entry");
    CheckpointState::CsEntry ce;
    ce.config = static_cast<std::size_t>(e.arr[0].num);
    ce.fidelity = static_cast<int>(e.arr[1].num);
    if (!getReport(e.arr[2], ce.report))
      return fail("checkpoint: bad cs report");
    st.cs.push_back(ce);
  }

  const Json* iters = root.find("iterations");
  if (!iters || iters->kind != Json::kArr)
    return fail("checkpoint: missing iterations");
  for (const Json& e : iters->arr) {
    if (e.kind != Json::kArr || e.arr.size() != 5)
      return fail("checkpoint: bad iteration entry");
    for (const Json& x : e.arr)
      if (x.kind != Json::kNum) return fail("checkpoint: bad iteration entry");
    st.iterations.push_back({static_cast<int>(e.arr[0].num),
                             static_cast<int>(e.arr[1].num),
                             static_cast<std::size_t>(e.arr[2].num),
                             e.arr[3].num, static_cast<int>(e.arr[4].num)});
  }

  if (const Json* j = root.find("picks_per_fidelity");
      j && j->kind == Json::kArr && j->arr.size() == sim::kNumFidelities)
    for (int f = 0; f < sim::kNumFidelities; ++f)
      st.picks_per_fidelity[f] = static_cast<int>(j->arr[f].num);

  const Json* totals = root.find("totals");
  if (!totals || totals->kind != Json::kObj)
    return fail("checkpoint: missing totals");
  {
    const auto num = [&](const char* key, double def = 0.0) {
      const Json* j = totals->find(key);
      return j && j->kind == Json::kNum ? j->num : def;
    };
    st.totals.charged_seconds = num("charged_seconds");
    st.totals.wall_seconds = num("wall_seconds");
    st.totals.tool_runs = static_cast<int>(num("tool_runs"));
    st.totals.cache_hits = static_cast<int>(num("cache_hits"));
    st.totals.attempts = static_cast<int>(num("attempts"));
    st.totals.transient_failures = static_cast<int>(num("transient_failures"));
    st.totals.timeouts = static_cast<int>(num("timeouts"));
    st.totals.persistent_failures =
        static_cast<int>(num("persistent_failures"));
    st.totals.degraded_jobs = static_cast<int>(num("degraded_jobs"));
    st.totals.retry_seconds_wasted = num("retry_seconds_wasted");
    st.totals.backoff_seconds = num("backoff_seconds");
  }

  if (const Json* j = root.find("sim_tool_seconds"); j && j->kind == Json::kNum)
    st.sim_tool_seconds = j->num;

  // Optional: only async-mode journals with live believers carry this.
  if (const Json* j = root.find("async_inflight"); j && j->kind == Json::kArr)
    for (const Json& e : j->arr) {
      if (e.kind != Json::kArr || e.arr.size() != 3 ||
          e.arr[0].kind != Json::kNum || e.arr[1].kind != Json::kNum ||
          e.arr[2].kind != Json::kNum)
        return fail("checkpoint: bad async_inflight entry");
      CheckpointState::InflightEntry ie;
      ie.config = static_cast<std::size_t>(e.arr[0].num);
      ie.fidelity = static_cast<int>(e.arr[1].num);
      ie.sim_start = e.arr[2].num;
      st.async_inflight.push_back(ie);
    }

  if (const Json* j = root.find("cache"); j && j->kind == Json::kArr)
    for (const Json& e : j->arr) {
      if (e.kind != Json::kArr || e.arr.size() != 2 ||
          e.arr[0].kind != Json::kNum || e.arr[1].kind != Json::kNum)
        return fail("checkpoint: bad cache entry");
      st.cache.emplace_back(static_cast<std::size_t>(e.arr[0].num),
                            static_cast<int>(e.arr[1].num));
    }
  if (const Json* j = root.find("cache_hits"))
    if (!getU64(*j, st.cache_hits)) return fail("checkpoint: bad cache_hits");
  if (const Json* j = root.find("cache_misses"))
    if (!getU64(*j, st.cache_misses))
      return fail("checkpoint: bad cache_misses");

  if (const Json* j = root.find("surrogate_hypers"); j && j->kind == Json::kArr)
    for (const Json& row : j->arr) {
      std::vector<double> vec;
      if (!getVec(row, vec)) return fail("checkpoint: bad hyper row");
      st.surrogate_hypers.push_back(std::move(vec));
    }

  // Optional: journals written before the incremental-posterior resume path
  // existed lack the key; restore then falls back to a dense refit.
  if (const Json* j = root.find("surrogate_base"); j && j->kind == Json::kArr)
    for (const Json& e : j->arr) {
      std::uint64_t u = 0;
      if (!getU64(e, u)) return fail("checkpoint: bad surrogate_base entry");
      st.surrogate_base.push_back(u);
    }

  // Optional: journals written before the self-healing state was carried
  // across resume restore with fresh streaks (the old behavior).
  if (const Json* j = root.find("surrogate_mle_streak");
      j && j->kind == Json::kArr)
    for (const Json& e : j->arr) {
      if (e.kind != Json::kNum)
        return fail("checkpoint: bad surrogate_mle_streak entry");
      st.surrogate_mle_streak.push_back(static_cast<int>(e.num));
    }
  if (const Json* j = root.find("surrogate_fallback_n");
      j && j->kind == Json::kArr)
    for (const Json& e : j->arr) {
      std::uint64_t u = 0;
      if (!getU64(e, u))
        return fail("checkpoint: bad surrogate_fallback_n entry");
      st.surrogate_fallback_n.push_back(u);
    }

  // Optional: version-1 journals written before the metrics ledger existed
  // simply lack the key.
  if (const Json* j = root.find("metrics"); j && j->kind == Json::kArr)
    for (const Json& e : j->arr) {
      if (e.kind != Json::kObj) return fail("checkpoint: bad metric entry");
      obs::MetricPoint p;
      if (const Json* k = e.find("name"); k && k->kind == Json::kStr)
        p.name = k->str;
      if (const Json* k = e.find("kind"); k && k->kind == Json::kNum)
        p.kind = static_cast<obs::MetricKind>(static_cast<int>(k->num));
      if (const Json* k = e.find("value"); k && k->kind == Json::kNum)
        p.value = k->num;
      if (const Json* k = e.find("count"))
        if (!getU64(*k, p.count)) return fail("checkpoint: bad metric count");
      if (const Json* k = e.find("sum"); k && k->kind == Json::kNum)
        p.sum = k->num;
      if (const Json* k = e.find("min"); k && k->kind == Json::kNum)
        p.min = k->num;
      if (const Json* k = e.find("max"); k && k->kind == Json::kNum)
        p.max = k->num;
      if (const Json* k = e.find("bounds"))
        if (!getVec(*k, p.bounds)) return fail("checkpoint: bad metric bounds");
      if (const Json* k = e.find("buckets"); k && k->kind == Json::kArr)
        for (const Json& b : k->arr) {
          std::uint64_t u = 0;
          if (!getU64(b, u)) return fail("checkpoint: bad metric bucket");
          p.buckets.push_back(u);
        }
      st.metrics.push_back(std::move(p));
    }

  // Optional: diagnostics digest. Journals written without --diag (or before
  // the flight recorder existed) lack the key; has_diag stays false.
  if (const Json* j = root.find("diag"); j && j->kind == Json::kObj) {
    st.has_diag = true;
    if (const Json* agg = j->find("agg");
        agg && agg->kind == Json::kArr &&
        agg->arr.size() == obs::kNumLevels) {
      for (int l = 0; l < obs::kNumLevels; ++l) {
        const Json& row = agg->arr[l];
        if (row.kind != Json::kArr || row.arr.size() != obs::kNumObjectives)
          return fail("checkpoint: bad diag agg row");
        for (int m = 0; m < obs::kNumObjectives; ++m) {
          const Json& cell = row.arr[m];
          if (cell.kind != Json::kArr || cell.arr.size() != 5)
            return fail("checkpoint: bad diag agg cell");
          for (const Json& x : cell.arr)
            if (x.kind != Json::kNum)
              return fail("checkpoint: bad diag agg cell");
          obs::CalibrationAgg& a = st.diag.agg[l][m];
          a.n = static_cast<long long>(cell.arr[0].num);
          a.n_in95 = static_cast<long long>(cell.arr[1].num);
          a.nlpd_sum = cell.arr[2].num;
          a.resid_sum = cell.arr[3].num;
          a.resid_sq_sum = cell.arr[4].num;
        }
      }
    }
    if (const Json* k = j->find("rounds"); k && k->kind == Json::kNum)
      st.diag.rounds = static_cast<long long>(k->num);
    if (const Json* k = j->find("samples"); k && k->kind == Json::kNum)
      st.diag.samples = static_cast<long long>(k->num);
    if (const Json* k = j->find("decisions"); k && k->kind == Json::kNum)
      st.diag.decisions = static_cast<long long>(k->num);
    if (const Json* k = j->find("warnings"); k && k->kind == Json::kArr)
      for (const Json& e : k->arr) {
        if (e.kind != Json::kObj) return fail("checkpoint: bad diag warning");
        obs::HealthWarning w;
        if (const Json* x = e.find("kind"); x && x->kind == Json::kNum)
          w.kind = static_cast<obs::HealthKind>(static_cast<int>(x->num));
        if (const Json* x = e.find("round"); x && x->kind == Json::kNum)
          w.round = static_cast<int>(x->num);
        if (const Json* x = e.find("fidelity"); x && x->kind == Json::kNum)
          w.fidelity = static_cast<int>(x->num);
        if (const Json* x = e.find("value"); x && x->kind == Json::kNum)
          w.value = x->num;
        if (const Json* x = e.find("threshold"); x && x->kind == Json::kNum)
          w.threshold = x->num;
        if (const Json* x = e.find("message"); x && x->kind == Json::kStr)
          w.message = x->str;
        st.diag.warnings.push_back(std::move(w));
      }
  }

  *out = std::move(st);
  return true;
}

namespace {

/// Rollback window: current frame plus up to this many predecessors. Two
/// predecessors means a torn newest frame still leaves a one-round-old
/// intact state AND its own predecessor for double-fault tolerance.
constexpr std::size_t kKeepPrevFrames = 2;

bool isFramedFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  char magic[4] = {0, 0, 0, 0};
  f.read(magic, 4);
  return f.gcount() == 4 && magic[0] == 'C' && magic[1] == 'M' &&
         magic[2] == 'J' && magic[3] == '1';
}

}  // namespace

bool saveCheckpointFramed(const std::string& path, const CheckpointState& st) {
  const util::FramedReadResult prev = util::readFrames(path);
  std::vector<std::string> keep;
  const std::size_t n = prev.frames.size();
  for (std::size_t i = n > kKeepPrevFrames ? n - kKeepPrevFrames : 0; i < n;
       ++i)
    keep.push_back(prev.frames[i]);
  keep.push_back(serializeCheckpoint(st));
  return util::rewriteFrames(path, keep);
}

bool loadCheckpointAny(const std::string& path, CheckpointState* out,
                       std::string* error, JournalLoadInfo* info) {
  if (info) *info = JournalLoadInfo{};
  if (!isFramedFile(path)) {
    // Legacy reader: one plain JSON checkpoint per file.
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      if (error) *error = "checkpoint: cannot open " + path;
      return false;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    return parseCheckpoint(ss.str(), out, error);
  }

  if (info) info->framed = true;
  util::FramedReadResult r = util::readFrames(path);
  if (info) info->frames = r.frames.size();

  // Newest frame that both CRC-checks and parses wins; anything newer is a
  // writer bug or tampering and gets rolled past just like a torn tail.
  std::size_t chosen = r.frames.size();
  CheckpointState st;
  std::string parse_err;
  for (std::size_t i = r.frames.size(); i-- > 0;) {
    if (parseCheckpoint(r.frames[i], &st, &parse_err)) {
      chosen = i;
      break;
    }
  }
  if (chosen == r.frames.size()) {
    if (error)
      *error = "checkpoint: no intact frame in " + path +
               (r.corrupt_tail ? " (" + r.tail_reason + ")" : "") +
               (parse_err.empty() ? "" : " (" + parse_err + ")");
    return false;
  }

  const bool need_repair = r.corrupt_tail || chosen + 1 < r.frames.size();
  if (need_repair) {
    const std::string qpath = path + ".quarantine";
    std::vector<std::string> keep(r.frames.begin(),
                                  r.frames.begin() +
                                      static_cast<std::ptrdiff_t>(chosen + 1));
    // Quarantine from the first byte past the chosen frame: unparseable
    // newer frames and the torn byte tail are one contiguous evidence blob.
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i <= chosen; ++i)
      offset += 12 + r.frames[i].size();
    if (util::quarantineTail(path, offset, keep, qpath)) {
      if (info) {
        info->rolled_back = true;
        info->quarantine_path = qpath;
        info->note = "rolled back to frame " + std::to_string(chosen + 1) +
                     "/" + std::to_string(r.frames.size()) +
                     (r.corrupt_tail ? " (" + r.tail_reason + ")"
                                     : " (unparseable newer frame)") +
                     "; corrupt tail quarantined to " + qpath;
      }
    } else if (info) {
      info->rolled_back = true;
      info->note = "rolled back in memory; quarantine write failed";
    }
  }

  *out = std::move(st);
  return true;
}

}  // namespace cmmfo::core
