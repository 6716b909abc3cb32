#include "core/checkpoint.h"

#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <type_traits>

#include "util/framed_log.h"
#include "util/json.h"

namespace cmmfo::core {

namespace {

using util::Json;

// ---------------------------------------------------------------- Schema ----
// The journal's one description. Each record type below is a function that
// lists its members once, in output order: objects as
// io("key", member, layout[, need or present-flag]), tuples as
// io(member, layout). The Writer and the Reader both run the same functions,
// so a key cannot reach one side only.
//
// The layout is chosen per field, not per C++ type (std::size_t and
// std::uint64_t are one type on LP64):
//   plain     bool, %.17g double (round-trips binary64 exactly, which keeps
//             resumed trajectories bit-identical), escaped string, or a bare
//             integer/enum
//   quoted    u64 as a quoted decimal (JSON numbers are doubles; 2^53 would
//             truncate RNG words)
//   obj(r)    {"k": v, "k2": v2}          tup(r)   [a,b,c]
//   inl(e)    [e,e,e]                     rows(e)  [\ne,\ne,\ne]
// The top-level state puts each entry on its own line: {\n"k": v,\n"k2": v\n}\n

struct Plain {};
struct Quoted {};
template <class R> struct Obj { R rec; };
template <class R> struct Tup { R rec; };
template <class E> struct Arr { E elem; bool rows; };

constexpr Plain plain{};
constexpr Quoted quoted{};
template <class R> constexpr Obj<R> obj(R r) { return {r}; }
template <class R> constexpr Tup<R> tup(R r) { return {r}; }
template <class E = Plain> constexpr Arr<E> inl(E e = {}) { return {e, false}; }
template <class E = Plain> constexpr Arr<E> rows(E e = {}) { return {e, true}; }

/// A kRequired key fails the parse when absent; a kOmitEmpty key is written
/// only when non-empty (and so reads as optional).
enum class Need { kOptional, kRequired, kOmitEmpty };

// The scheduler-totals member and the top-level cache counter share a name.
constexpr const char* kCacheHits = "cache_hits";

constexpr auto kReport = [](auto& io, auto& r) {
  io(r.valid);
  io(r.power_w);
  io(r.delay_us);
  io(r.lut_util);
  io(r.latency_cycles);
  io(r.clock_ns);
  io(r.tool_seconds);
};

constexpr auto kRng = [](auto& io, auto& r) {
  io("s", r.s, inl(quoted), Need::kRequired);
  io("has_cached_normal", r.has_cached_normal);
  io("cached_normal", r.cached_normal);
};

constexpr auto kData = [](auto& io, auto& d) {
  io("configs", d.configs, inl(), Need::kRequired);
  io("y", d.y, inl(inl()), Need::kRequired);
};

constexpr auto kCs = [](auto& io, auto& e) {
  io(e.config);
  io(e.fidelity);
  io(e.report, tup(kReport));
};

constexpr auto kIteration = [](auto& io, auto& e) {
  io(e.iteration);
  io(e.fidelity);
  io(e.config);
  io(e.peipv);
  io(e.round);
};

constexpr auto kInflight = [](auto& io, auto& e) {
  io(e.config);
  io(e.fidelity);
  io(e.sim_start);
};

constexpr auto kCacheEntry = [](auto& io, auto& e) {
  io(e.first);   // config
  io(e.second);  // highest stage
};

constexpr auto kTotals = [](auto& io, auto& t) {
  io("charged_seconds", t.charged_seconds);
  io("wall_seconds", t.wall_seconds);
  io("tool_runs", t.tool_runs);
  io(kCacheHits, t.cache_hits);
  io("attempts", t.attempts);
  io("transient_failures", t.transient_failures);
  io("timeouts", t.timeouts);
  io("persistent_failures", t.persistent_failures);
  io("degraded_jobs", t.degraded_jobs);
  io("retry_seconds_wasted", t.retry_seconds_wasted);
  io("backoff_seconds", t.backoff_seconds);
};

constexpr auto kMetric = [](auto& io, auto& p) {
  io("name", p.name);
  io("kind", p.kind);
  io("value", p.value);
  io("count", p.count, quoted);
  io("sum", p.sum);
  io("min", p.min);
  io("max", p.max);
  io("bounds", p.bounds, inl());
  io("buckets", p.buckets, inl(quoted));
};

constexpr auto kCalibration = [](auto& io, auto& a) {
  io(a.n);
  io(a.n_in95);
  io(a.nlpd_sum);
  io(a.resid_sum);
  io(a.resid_sq_sum);
};

constexpr auto kWarning = [](auto& io, auto& w) {
  io("kind", w.kind);
  io("round", w.round);
  io("fidelity", w.fidelity);
  io("value", w.value);
  io("threshold", w.threshold);
  io("message", w.message);
};

constexpr auto kDiag = [](auto& io, auto& d) {
  io("agg", d.agg, inl(inl(tup(kCalibration))));  // [level][objective]
  io("rounds", d.rounds);
  io("samples", d.samples);
  io("decisions", d.decisions);
  io("warnings", d.warnings, rows(obj(kWarning)));
};

constexpr auto kState = [](auto& io, auto& st) {
  io("version", st.version, plain, Need::kRequired);
  io("fingerprint", st.fingerprint, quoted);
  io("next_round", st.next_round);
  io("t", st.t);
  io("rng", st.rng, obj(kRng), Need::kRequired);
  io("data", st.data, rows(obj(kData)), Need::kRequired);
  io("cs", st.cs, rows(tup(kCs)), Need::kRequired);
  io("iterations", st.iterations, rows(tup(kIteration)), Need::kRequired);
  io("picks_per_fidelity", st.picks_per_fidelity, inl());
  io("totals", st.totals, obj(kTotals), Need::kRequired);
  io("sim_tool_seconds", st.sim_tool_seconds);
  // Only async journals with believers in flight carry this key, so
  // synchronous journals keep the bytes they had before it existed.
  io("async_inflight", st.async_inflight, rows(tup(kInflight)),
     Need::kOmitEmpty);
  io("cache", st.cache, inl(tup(kCacheEntry)));
  io(kCacheHits, st.cache_hits, quoted);
  io("cache_misses", st.cache_misses, quoted);
  io("surrogate_hypers", st.surrogate_hypers, rows(inl()));
  io("surrogate_base", st.surrogate_base, inl(quoted));
  io("metrics", st.metrics, rows(obj(kMetric)));
  // Written only with diagnostics on; reading it sets has_diag.
  io("diag", st.diag, obj(kDiag), st.has_diag);
};

// ---------------------------------------------------------------- Writer ----

struct Writer {
  std::string& out;  ///< appended to

  /// Object context. `next` precedes the next entry, `sep` every later one.
  struct Fields {
    Writer& w;
    const char* sep;
    const char* next;
    template <class T, class L = Plain>
    void operator()(const char* key, const T& v, L layout = {},
                    Need need = Need::kOptional) {
      if constexpr (requires { v.empty(); })
        if (need == Need::kOmitEmpty && v.empty()) return;
      w.out += next;
      next = sep;
      w.out.append("\"").append(key).append("\": ");
      w.put(v, layout);
    }
    template <class T, class L>
    void operator()(const char* key, const T& v, L layout,
                    const bool& present) {
      if (present) (*this)(key, v, layout);
    }
  };

  /// Tuple context.
  struct Items {
    Writer& w;
    const char* next = "";
    template <class T, class L = Plain>
    void operator()(const T& v, L layout = {}) {
      w.out += next;
      next = ",";
      w.put(v, layout);
    }
  };

  template <class T>
  void put(const T& v, Plain) {
    if constexpr (std::is_same_v<T, bool>)
      out += v ? "true" : "false";
    else if constexpr (std::is_floating_point_v<T>)
      util::putDouble(out, v);
    else if constexpr (std::is_same_v<T, std::string>)
      util::putString(out, v);
    else
      util::putInt(out, static_cast<long long>(v));
  }
  void put(std::uint64_t v, Quoted) { util::putU64(out, v); }
  template <class T, class E>
  void put(const T& v, Arr<E> a) {
    out += '[';
    const char* next = a.rows ? "\n" : "";
    for (const auto& e : v) {
      out += next;
      next = a.rows ? ",\n" : ",";
      put(e, a.elem);
    }
    out += ']';
  }
  template <class T, class R>
  void put(const T& v, Obj<R> o) {
    out += '{';
    Fields f{*this, ", ", ""};
    o.rec(f, v);
    out += '}';
  }
  template <class T, class R>
  void put(const T& v, Tup<R> t) {
    out += '[';
    Items it{*this};
    t.rec(it, v);
    out += ']';
  }
};

// ---------------------------------------------------------------- Reader ----

/// Fills a default-constructed record. A failure records what went wrong
/// ("missing" or "bad") and the dotted key path down to it.
struct Reader {
  std::string what;
  std::string path;

  struct Fields {
    Reader& r;
    const Json& j;
    bool ok = true;
    template <class T, class L = Plain>
    void operator()(const char* key, T& v, L layout = {},
                    Need need = Need::kOptional) {
      if (!ok) return;
      const Json* m = j.find(key);
      if (m == nullptr) {
        if (need == Need::kRequired) fail("missing", key);
      } else if (!r.get(*m, v, layout)) {
        fail("bad", key);
      }
    }
    template <class T, class L>
    void operator()(const char* key, T& v, L layout, bool& present) {
      present = j.find(key) != nullptr;
      (*this)(key, v, layout);
    }
    void fail(const char* kind, const char* key) {
      ok = false;
      if (r.what.empty()) r.what = kind;
      r.path = r.path.empty() ? key : key + ("." + r.path);
    }
  };

  struct Items {
    Reader& r;
    const Json& j;
    std::size_t i = 0;
    bool ok = true;
    template <class T, class L = Plain>
    void operator()(T& v, L layout = {}) {
      ok = ok && i < j.arr.size() && r.get(j.arr[i], v, layout);
      ++i;
    }
  };

  template <class T>
  bool get(const Json& j, T& v, Plain) {
    if constexpr (std::is_same_v<T, bool>) {
      if (j.kind != Json::kBool) return false;
      v = j.b;
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (j.kind != Json::kStr) return false;
      v = j.str;
    } else {
      if (j.kind != Json::kNum) return false;
      if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(j.num));
      else
        v = static_cast<T>(j.num);
    }
    return true;
  }
  bool get(const Json& j, std::uint64_t& v, Quoted) { return util::getU64(j, v); }
  template <class T, class E>
  bool get(const Json& j, T& v, Arr<E> a) {
    if (j.kind != Json::kArr) return false;
    if constexpr (requires { v.resize(0); })
      v.resize(j.arr.size());
    else if (j.arr.size() != std::size(v))
      return false;
    for (std::size_t i = 0; i < j.arr.size(); ++i)
      if (!get(j.arr[i], v[i], a.elem)) return false;
    return true;
  }
  template <class T, class R>
  bool get(const Json& j, T& v, Obj<R> o) {
    if (j.kind != Json::kObj) return false;
    Fields f{*this, j};
    o.rec(f, v);
    return f.ok;
  }
  template <class T, class R>
  bool get(const Json& j, T& v, Tup<R> t) {
    if (j.kind != Json::kArr) return false;
    Items it{*this, j};
    t.rec(it, v);
    return it.ok && it.i == j.arr.size();
  }
};

/// Rollback window: current frame plus up to this many predecessors. Two
/// predecessors means a torn newest frame still leaves a one-round-old
/// intact state AND its own predecessor for double-fault tolerance.
constexpr std::size_t kKeepPrevFrames = 2;

bool isFramedFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  return f.read(magic, 4) && std::memcmp(magic, "CMJ1", 4) == 0;
}

/// Append the serialized state to `out`.
void serializeInto(std::string& out, const CheckpointState& st) {
  Writer w{out};
  out += '{';
  Writer::Fields top{w, ",\n", "\n"};
  kState(top, st);
  out += "\n}\n";
}

}  // namespace

std::string serializeCheckpoint(const CheckpointState& st) {
  std::string out;
  out.reserve(1 << 16);
  serializeInto(out, st);
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
  Reader r;
  const bool ok = r.get(root, st, obj(kState));
  // The version is read first, so a journal of another format version is
  // reported as such rather than by whichever of its keys differs.
  if (st.version != CheckpointState::kVersion)
    return fail("checkpoint: unsupported version " +
                std::to_string(st.version));
  if (!ok) return fail("checkpoint: " + r.what + " " + r.path);
  for (const CheckpointState::FidelityData& d : st.data)
    if (d.configs.size() != d.y.size()) return fail("checkpoint: bad data");
  *out = std::move(st);
  return true;
}

JournalWriter::JournalWriter(std::string path)
    : log_(std::move(path), kKeepPrevFrames) {}

bool JournalWriter::save(const CheckpointState& st) {
  return log_.append([&st](std::string& out) { serializeInto(out, st); });
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
