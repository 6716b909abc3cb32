#include "obs/recorder.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "util/json.h"

namespace cmmfo::obs {

namespace {

using util::putDoubleOrNull;
using util::putInt;
using util::putString;
using util::putU64Bare;

constexpr const char* kLevelNames[kNumLevels] = {"hls", "syn", "impl"};
constexpr const char* kObjectiveNames[kNumObjectives] = {"power", "delay",
                                                         "lut"};

// One level's aggregate pooled over objectives, summed in objective order.
CalibrationAgg pooled(const LevelAggs& agg, int level) {
  CalibrationAgg p;
  for (const CalibrationAgg& a : agg[level]) {
    p.n += a.n;
    p.n_in95 += a.n_in95;
    p.nlpd_sum += a.nlpd_sum;
    p.resid_sum += a.resid_sum;
    p.resid_sq_sum += a.resid_sq_sum;
  }
  return p;
}

// A pooled statistic per level as a JSON array, e.g. "[0.9,null,1]".
void putPerLevel(std::string& out, const LevelAggs& agg,
                 double (CalibrationAgg::*stat)() const) {
  out += '[';
  for (int l = 0; l < kNumLevels; ++l) {
    if (l) out += ',';
    putDoubleOrNull(out, (pooled(agg, l).*stat)());
  }
  out += ']';
}

void putVecField(std::string& out, const char* key,
                 const std::vector<double>& v) {
  out += ", \"";
  out += key;
  out += "\": ";
  util::putVecOrNull(out, v);
}

std::string renderHealthLine(const HealthWarning& w) {
  std::string out = "{\"type\": \"health\", \"kind\": ";
  putString(out, healthKindName(w.kind));
  out += ", \"round\": ";
  putInt(out, w.round);
  if (w.fidelity >= 0) {
    out += ", \"fidelity\": ";
    putInt(out, w.fidelity);
  }
  out += ", \"value\": ";
  putDoubleOrNull(out, w.value);
  out += ", \"threshold\": ";
  putDoubleOrNull(out, w.threshold);
  out += ", \"message\": ";
  putString(out, w.message);
  out += "}";
  return out;
}

}  // namespace

const char* healthKindName(HealthKind k) {
  switch (k) {
    case HealthKind::kCoverageDrift: return "coverage_drift";
    case HealthKind::kGramConditionBlowup: return "gram_condition_blowup";
    case HealthKind::kMleNonConvergence: return "mle_non_convergence";
    case HealthKind::kCacheHitCollapse: return "cache_hit_collapse";
    case HealthKind::kDegenerateKTask: return "degenerate_k_task";
    case HealthKind::kRetryStorm: return "retry_storm";
  }
  return "?";
}

const char* levelName(int level) {
  return level >= 0 && level < kNumLevels ? kLevelNames[level] : "?";
}

const char* objectiveName(int index) {
  return index >= 0 && index < kNumObjectives ? kObjectiveNames[index] : "?";
}

void DiagRecorder::setEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void DiagRecorder::setThresholds(const HealthThresholds& t) {
  std::lock_guard<std::mutex> lock(mu_);
  thresholds_ = t;
}

void DiagRecorder::setRunMeta(RunMeta meta) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_ = std::move(meta);
}

void DiagRecorder::setAdrsOracle(
    std::function<double(const std::vector<std::size_t>&)> oracle) {
  std::lock_guard<std::mutex> lock(mu_);
  adrs_oracle_ = std::move(oracle);
}

void DiagRecorder::addCalibrationSample(CalibrationSample s) {
  if (!enabled()) return;
  const std::size_t m = s.y.size();
  std::vector<double> z(m), lpd(m);
  std::vector<bool> inside(m);
  for (std::size_t i = 0; i < m; ++i) {
    z[i] = standardizedResidual(s.y[i], s.mu[i], s.var[i]);
    lpd[i] = nlpd(s.y[i], s.mu[i], s.var[i]);
    inside[i] = in95(s.y[i], s.mu[i], s.var[i]);
  }

  std::string out = "{\"type\": \"calibration\", \"round\": ";
  putInt(out, s.round);
  out += ", \"config\": ";
  putInt(out, static_cast<long long>(s.config));
  out += ", \"fidelity\": ";
  putInt(out, s.fidelity);
  out += ", \"believer\": ";
  out += s.believer ? "true" : "false";
  putVecField(out, "y", s.y);
  putVecField(out, "mu", s.mu);
  putVecField(out, "var", s.var);
  putVecField(out, "z", z);
  putVecField(out, "nlpd", lpd);
  out += ", \"in95\": [";
  for (std::size_t i = 0; i < m; ++i) {
    if (i) out += ',';
    out += inside[i] ? "true" : "false";
  }
  out += "]}";

  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(out));
  ++samples_;
  if (s.believer) return;  // fantasy-conditioned posteriors skew coverage
  if (s.fidelity < 0 || s.fidelity >= kNumLevels) return;
  for (std::size_t i = 0; i < m && i < kNumObjectives; ++i)
    agg_[s.fidelity][i].add(s.y[i], s.mu[i], s.var[i]);
}

void DiagRecorder::addDecision(DecisionRecord d) {
  if (!enabled()) return;
  std::string out = "{\"type\": \"decision\", \"round\": ";
  putInt(out, d.round);
  out += ", \"winner_config\": ";
  putInt(out, static_cast<long long>(d.winner_config));
  out += ", \"winner_fidelity\": ";
  putInt(out, d.winner_fidelity);
  out += ", \"winner_peipv\": ";
  putDoubleOrNull(out, d.winner_peipv);
  out += ", \"believer_depth\": ";
  putInt(out, d.believer_depth);
  out += ", \"believer_invalidations\": ";
  putInt(out, d.believer_invalidations);
  out += ", \"rationale\": ";
  putString(out, d.rationale);
  out += ", \"fidelities\": [";
  for (std::size_t f = 0; f < d.fidelities.size(); ++f) {
    const FidelityAudit& a = d.fidelities[f];
    if (f) out += ',';
    out += "{\"fidelity\": ";
    putInt(out, a.fidelity);
    out += ", \"cost_penalty\": ";
    putDoubleOrNull(out, a.cost_penalty);
    out += ", \"candidates\": [";
    for (std::size_t c = 0; c < a.top.size(); ++c) {
      if (c) out += ',';
      out += "{\"config\": ";
      putInt(out, static_cast<long long>(a.top[c].config));
      out += ", \"eipv\": ";
      putDoubleOrNull(out, a.top[c].eipv);
      out += ", \"peipv\": ";
      putDoubleOrNull(out, a.top[c].peipv);
      out += "}";
    }
    out += "]}";
  }
  out += "]}";

  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(out));
  ++decisions_;
}

void DiagRecorder::addModelRecord(ModelRecord m) {
  if (!enabled()) return;
  std::string out = "{\"type\": \"model\", \"round\": ";
  putInt(out, m.round);
  out += ", \"level\": ";
  putInt(out, m.level);
  out += ", \"correlated\": ";
  out += m.correlated ? "true" : "false";
  out += ", \"k_task\": [";
  for (std::size_t i = 0; i < m.task_corr.size(); ++i) {
    if (i) out += ',';
    util::putVecOrNull(out, m.task_corr[i]);
  }
  out += "], \"lml\": ";
  putDoubleOrNull(out, m.lml);
  out += ", \"fit_iters\": ";
  putInt(out, m.fit_iters);
  out += ", \"max_iters\": ";
  putInt(out, m.max_iters);
  out += ", \"cond_log10\": ";
  putDoubleOrNull(out, m.cond_log10);
  out += ", \"lowfid_relevance\": ";
  putDoubleOrNull(out, m.lowfid_relevance);
  out += "}";

  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(out));

  if (m.cond_log10 > thresholds_.max_gram_log10) {
    HealthWarning w;
    w.kind = HealthKind::kGramConditionBlowup;
    w.round = m.round;
    w.fidelity = m.level;
    w.value = m.cond_log10;
    w.threshold = thresholds_.max_gram_log10;
    w.message = std::string("Gram condition estimate 1e") +
                std::to_string(m.cond_log10) + " at level " +
                levelName(m.level) + " — posterior numerics are suspect";
    emitLocked(std::move(w));
  }
  if (m.max_iters > 0 && m.fit_iters >= m.max_iters) {
    HealthWarning w;
    w.kind = HealthKind::kMleNonConvergence;
    w.round = m.round;
    w.fidelity = m.level;
    w.value = static_cast<double>(m.fit_iters);
    w.threshold = static_cast<double>(m.max_iters);
    w.message = std::string("hyperparameter MLE used its full budget of ") +
                std::to_string(m.max_iters) + " iterations at level " +
                levelName(m.level);
    emitLocked(std::move(w));
  }
  for (std::size_t i = 0; i < m.task_corr.size(); ++i)
    for (std::size_t j = 0; j < m.task_corr[i].size(); ++j) {
      if (i == j) continue;
      const double c = m.task_corr[i][j];
      if (std::isfinite(c) && std::fabs(c) <= thresholds_.max_task_corr)
        continue;
      HealthWarning w;
      w.kind = HealthKind::kDegenerateKTask;
      w.round = m.round;
      w.fidelity = m.level;
      w.value = c;
      w.threshold = thresholds_.max_task_corr;
      w.message = std::string("task correlation ") + objectiveName(int(i)) +
                  "/" + objectiveName(int(j)) + " is degenerate at level " +
                  levelName(m.level);
      emitLocked(std::move(w));
      i = m.task_corr.size();  // one warning per record is enough
      break;
    }
}

void DiagRecorder::endRound(int round, double hypervolume,
                            const std::vector<std::size_t>& selected,
                            double charged_seconds, std::uint64_t cache_hits,
                            std::uint64_t cache_misses) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  double adrs = std::numeric_limits<double>::quiet_NaN();
  if (adrs_oracle_) adrs = adrs_oracle_(selected);

  std::string out = "{\"type\": \"convergence\", \"round\": ";
  putInt(out, round);
  out += ", \"hypervolume\": ";
  putDoubleOrNull(out, hypervolume);
  out += ", \"adrs\": ";
  putDoubleOrNull(out, adrs);
  out += ", \"charged_seconds\": ";
  putDoubleOrNull(out, charged_seconds);
  out += ", \"cache_hits\": ";
  putU64Bare(out, cache_hits);
  out += ", \"cache_misses\": ";
  putU64Bare(out, cache_misses);
  out += ", \"coverage\": ";
  putPerLevel(out, agg_, &CalibrationAgg::coverage);
  out += "}";
  lines_.push_back(std::move(out));
  ++rounds_;

  for (int l = 0; l < kNumLevels; ++l) {
    const CalibrationAgg level = pooled(agg_, l);
    if (level.n < thresholds_.min_coverage_samples) continue;
    const double cov = level.coverage();
    if (cov >= thresholds_.min_coverage) continue;
    HealthWarning w;
    w.kind = HealthKind::kCoverageDrift;
    w.round = round;
    w.fidelity = l;
    w.value = cov;
    w.threshold = thresholds_.min_coverage;
    w.message = std::string("95%-interval coverage at level ") +
                levelName(l) + " collapsed — surrogate is over-confident";
    emitLocked(std::move(w));
  }
}

void DiagRecorder::health(HealthWarning w) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  warnLocked(std::move(w));
}

void DiagRecorder::emitLocked(HealthWarning w) {
  const auto key = std::make_pair(static_cast<int>(w.kind), w.fidelity);
  if (!fired_.insert(key).second) return;  // once per (kind, fidelity) / run
  warnLocked(std::move(w));
}

void DiagRecorder::warnLocked(HealthWarning w) {
  lines_.push_back(renderHealthLine(w));
  warnings_.push_back(std::move(w));
  warning_count_.store(warnings_.size(), std::memory_order_release);
}

std::vector<HealthWarning> DiagRecorder::healthWarnings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warnings_;
}

void DiagRecorder::addRecovery(RecoveryRecord r) {
  if (!enabled()) return;
  std::string out = "{\"type\": \"recovery\", \"round\": ";
  putInt(out, r.round);
  out += ", \"level\": ";
  putInt(out, r.level);
  out += ", \"action\": ";
  putString(out, r.action);
  out += ", \"reason\": ";
  putString(out, r.reason);
  out += ", \"value\": ";
  putDoubleOrNull(out, r.value);
  out += "}";

  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(out));
}

std::size_t DiagRecorder::recordCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_.size();
}

CalibrationAgg DiagRecorder::aggregate(int level, int objective) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (level < 0 || level >= kNumLevels || objective < 0 ||
      objective >= kNumObjectives)
    return {};
  return agg_[level][objective];
}

DiagState DiagRecorder::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  DiagState st;
  st.agg = agg_;
  st.rounds = rounds_;
  st.samples = samples_;
  st.decisions = decisions_;
  st.warnings = warnings_;
  return st;
}

void DiagRecorder::restore(const DiagState& st) {
  std::lock_guard<std::mutex> lock(mu_);
  agg_ = st.agg;
  rounds_ = st.rounds;
  samples_ = st.samples;
  decisions_ = st.decisions;
  warnings_ = st.warnings;
  warning_count_.store(warnings_.size(), std::memory_order_release);
  fired_.clear();
  for (const HealthWarning& w : st.warnings)
    fired_.insert({static_cast<int>(w.kind), w.fidelity});
}

void DiagRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.clear();
  agg_ = {};
  rounds_ = samples_ = decisions_ = 0;
  fired_.clear();
  warnings_.clear();
  warning_count_.store(0, std::memory_order_release);
  meta_ = {};
}

std::string DiagRecorder::journal() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"type\": \"manifest\", \"git_sha\": ";
  putString(out, meta_.git_sha);
  out += ", \"build_type\": ";
  putString(out, meta_.build_type);
  out += ", \"tool\": ";
  putString(out, meta_.tool);
  out += ", \"flags\": ";
  putString(out, meta_.flags);
  out += ", \"benchmark\": ";
  putString(out, meta_.benchmark);
  out += ", \"method\": ";
  putString(out, meta_.method);
  if (meta_.has_seed) {
    out += ", \"seed\": ";
    putU64Bare(out, meta_.seed);
  }
  out += "}\n";

  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }

  out += "{\"type\": \"summary\", \"rounds\": ";
  putInt(out, rounds_);
  out += ", \"samples\": ";
  putInt(out, samples_);
  out += ", \"decisions\": ";
  putInt(out, decisions_);
  out += ", \"warnings\": ";
  putInt(out, static_cast<long long>(warnings_.size()));
  out += ", \"coverage\": ";
  putPerLevel(out, agg_, &CalibrationAgg::coverage);
  out += ", \"mean_nlpd\": ";
  putPerLevel(out, agg_, &CalibrationAgg::meanNlpd);
  out += "}\n";
  return out;
}

bool DiagRecorder::writeJournal(const std::string& path) const {
  return util::writeTextTo(path, journal());
}

std::string DiagRecorder::summaryText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "diag: rounds=" + std::to_string(rounds_) +
                    " samples=" + std::to_string(samples_) +
                    " decisions=" + std::to_string(decisions_) +
                    " warnings=" + std::to_string(warnings_.size()) + "\n";
  for (int l = 0; l < kNumLevels; ++l) {
    const CalibrationAgg level = pooled(agg_, l);
    if (level.n == 0) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "diag: %s: n=%lld coverage95=%.3f mean_nlpd=%.4f\n",
                  levelName(l), level.n, level.coverage(), level.meanNlpd());
    out += buf;
  }
  for (const HealthWarning& w : warnings_) {
    out += "diag: WARN [";
    out += healthKindName(w.kind);
    out += "] round=" + std::to_string(w.round);
    if (w.fidelity >= 0) out += std::string(" level=") + levelName(w.fidelity);
    out += ": " + w.message + "\n";
  }
  return out;
}

}  // namespace cmmfo::obs
