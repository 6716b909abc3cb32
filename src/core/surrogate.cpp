#include "core/surrogate.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "linalg/vec_ops.h"
#include "obs/obs.h"
#include "util/fork_join.h"

namespace cmmfo::core {

namespace {
/// Smallest candidate block predictBatch hands to one fork-join task.
constexpr std::size_t kPredictGrain = 64;

double elapsedUs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr auto kMax = [](auto acc, auto v) { return std::max(acc, v); };

// What model `mm` of a level learns from the level's n x M targets y: the
// MTGP takes every column, the GP of objective mm takes column mm.
const linalg::Matrix& targetsOf(const gp::MultiTaskGp&,
                                const linalg::Matrix& y, std::size_t) {
  return y;
}
gp::Vec targetsOf(const gp::GpRegressor&, const linalg::Matrix& y,
                  std::size_t mm) {
  return y.col(mm);
}
// Rows [from, to) of the n x M targets y.
linalg::Matrix rowsOf(const linalg::Matrix& y, std::size_t from,
                      std::size_t to) {
  linalg::Matrix out(to - from, y.cols());
  for (std::size_t i = from; i < to; ++i)
    for (std::size_t mm = 0; mm < y.cols(); ++mm) out(i - from, mm) = y(i, mm);
  return out;
}
}  // namespace

template <class Self, class Fn>
void MultiFidelitySurrogate::forEachModel(Self& self, std::size_t level,
                                          Fn&& fn) {
  if (self.opts_.obj == ObjModelKind::kCorrelated) {
    fn(self.mt_models_[level], std::size_t{0});
  } else {
    for (std::size_t mm = 0; mm < self.m_; ++mm)
      fn(self.ind_models_[level][mm], mm);
  }
}

template <class T, class Value, class Fold>
T MultiFidelitySurrogate::foldModels(std::size_t level, T init, Value value,
                                     Fold fold) const {
  if (opts_.obj == ObjModelKind::kCorrelated)
    return value(mt_models_[level]);
  for (const auto& model : ind_models_[level]) init = fold(init, value(model));
  return init;
}

MultiFidelitySurrogate::MultiFidelitySurrogate(std::size_t input_dim,
                                               std::size_t num_objectives,
                                               std::size_t num_levels,
                                               SurrogateOptions opts)
    : input_dim_(input_dim), m_(num_objectives), levels_(num_levels),
      opts_(opts) {
  assert(levels_ >= 1 && m_ >= 1);
  for (std::size_t l = 0; l < levels_; ++l) {
    // Non-linear chaining feeds the lower level's M predicted objectives in
    // as extra features (Eq. 5, "concatenated with the directive encoding
    // features"); the other chainings keep the plain design features.
    const std::size_t dim =
        (opts_.mf == MfKind::kNonlinear && l > 0) ? input_dim_ + m_
                                                  : input_dim_;
    if (opts_.obj == ObjModelKind::kCorrelated) {
      const gp::Matern52Ard proto(dim, /*unit_variance=*/true);
      mt_models_.emplace_back(proto, m_, opts_.mtgp);
    } else {
      const gp::Matern52Ard proto(dim, /*unit_variance=*/false);
      ind_models_.emplace_back();
      for (std::size_t mm = 0; mm < m_; ++mm)
        ind_models_.back().emplace_back(proto, opts_.gp);
    }
  }
  rho_.assign(levels_, std::vector<double>(m_, 1.0));
  esc_seen_.assign(levels_, 0);
}

std::uint64_t MultiFidelitySurrogate::levelEscalations(
    std::size_t level) const {
  return foldModels(
      level, std::uint64_t{0},
      [](const auto& model) { return model.jitterEscalations(); },
      std::plus<>());
}

void MultiFidelitySurrogate::noteEscalations(std::size_t level) {
  const std::uint64_t now = levelEscalations(level);
  if (now == esc_seen_[level]) return;
  const double jitter = foldModels(
      level, 0.0,
      [](const auto& model) { return model.lastEscalationJitter(); },
      kMax);
  recovery_events_.push_back(
      {"jitter_escalation", static_cast<int>(level),
       "Gram factorization needed the escalated jitter ladder", jitter});
  esc_seen_[level] = now;
}

gp::Vec MultiFidelitySurrogate::augmented(std::size_t level,
                                          const gp::Vec& x) const {
  if (opts_.mf != MfKind::kNonlinear || level == 0) return x;
  return linalg::concat(x, predictMean(level - 1, x));
}

void MultiFidelitySurrogate::buildLevelTraining(std::size_t level,
                                                const FidelityObs& o,
                                                gp::Dataset* inputs,
                                                linalg::Matrix* targets) {
  // Build this level's inputs and targets per the chaining mode. Lower
  // levels are already (re)fitted, so their posteriors are usable here.
  const std::size_t l = level;
  inputs->clear();
  inputs->reserve(o.x.size());
  *targets = o.y;

  if (opts_.mf == MfKind::kNonlinear && l > 0) {
    for (const auto& xi : o.x) inputs->push_back(augmented(l, xi));
  } else {
    *inputs = o.x;
  }

  if (opts_.mf == MfKind::kLinear && l > 0) {
    // Estimate the per-objective AR(1) scale against the lower level's
    // posterior mean, then model the residual.
    std::vector<gp::Vec> mu(o.x.size());
    for (std::size_t i = 0; i < o.x.size(); ++i)
      mu[i] = predictMean(l - 1, o.x[i]);
    for (std::size_t mm = 0; mm < m_; ++mm) {
      double num = 0.0, den = 0.0;
      for (std::size_t i = 0; i < o.x.size(); ++i) {
        num += mu[i][mm] * o.y(i, mm);
        den += mu[i][mm] * mu[i][mm];
      }
      rho_[l][mm] = den > 1e-12 ? num / den : 1.0;
      for (std::size_t i = 0; i < o.x.size(); ++i)
        (*targets)(i, mm) = o.y(i, mm) - rho_[l][mm] * mu[i][mm];
    }
  }
}

void MultiFidelitySurrogate::fit(const std::vector<FidelityObs>& obs,
                                 rng::Rng& rng, bool optimize_hypers) {
  assert(obs.size() == levels_);
  // Every level is rebuilt bottom-up before a level above reads it through
  // augmented()/predict(), which asserts fitted().
  fitted_ = true;
  spec_skipped_.assign(levels_, 0);
  for (std::size_t l = 0; l < levels_; ++l) {
    const FidelityObs& o = obs[l];
    assert(o.x.size() >= 2 && o.y.rows() == o.x.size() && o.y.cols() == m_);

    gp::Dataset inputs;
    linalg::Matrix targets;
    buildLevelTraining(l, o, &inputs, &targets);

    obs::Span fit_span(&obs::tracer(), "gp_fit_level", "gp");
    fit_span.fidelity(static_cast<int>(l))
        .outcome(optimize_hypers ? "mle" : "refit");
    forEachModel(*this, l, [&](auto& model, std::size_t mm) {
      const auto& y = targetsOf(model, targets, mm);
      if (optimize_hypers)
        model.fit(inputs, y, rng);
      else
        model.refitPosterior(inputs, y);
      if (!obs::metrics().enabled()) return;
      obs::MetricsRegistry& met = obs::metrics();
      if (optimize_hypers) {
        met.defineHistogram("gp.fit_iters",
                            obs::MetricsRegistry::countBounds());
        met.observe("gp.fit_iters",
                    static_cast<double>(model.lastFitIterations()));
      }
      met.defineHistogram("gp.cond_log10",
                          obs::MetricsRegistry::conditionBounds());
      met.observe("gp.cond_log10", std::log10(model.gramConditionEstimate()));
    });
    // The level's LML gauge: the MTGP's own, or the sum over the
    // objectives' GPs (as logMarginalLikelihood() reports it).
    if (obs::metrics().enabled())
      obs::metrics().set(
          "gp.lml.level" + std::to_string(l),
          foldModels(
              l, 0.0,
              [](const auto& model) { return model.logMarginalLikelihood(); },
              std::plus<>()));
    noteEscalations(l);
  }
  // A full (re)fit densifies every factor: the fitted state becomes the new
  // committed baseline for incremental appends and checkpointing.
  committed_n_.resize(levels_);
  for (std::size_t l = 0; l < levels_; ++l) committed_n_[l] = obs[l].x.size();
  spec_dirty_.assign(levels_, 0);
  committed_base_ = currentBaseCounts();
}

std::size_t MultiFidelitySurrogate::levelPoints(std::size_t level) const {
  // Every model of a level holds the same points.
  return foldModels(
      level, std::size_t{0}, [](const auto& model) { return model.numData(); },
      kMax);
}

std::vector<std::size_t> MultiFidelitySurrogate::currentBaseCounts() const {
  std::vector<std::size_t> base;
  for (std::size_t l = 0; l < levels_; ++l)
    forEachModel(*this, l, [&](const auto& model, std::size_t) {
      base.push_back(model.denseBasePoints());
    });
  return base;
}

std::vector<std::size_t> MultiFidelitySurrogate::committedBaseCounts() const {
  return committed_base_;
}

void MultiFidelitySurrogate::denseRefitLevel(std::size_t level,
                                             const FidelityObs& o) {
  assert(o.x.size() >= 2 && o.y.rows() == o.x.size() && o.y.cols() == m_);
  gp::Dataset inputs;
  linalg::Matrix targets;
  buildLevelTraining(level, o, &inputs, &targets);
  obs::Span span(&obs::tracer(), "gp_fit_level", "gp");
  span.fidelity(static_cast<int>(level)).outcome("refit");
  forEachModel(*this, level, [&](auto& model, std::size_t mm) {
    model.refitPosterior(inputs, targetsOf(model, targets, mm));
  });
}

bool MultiFidelitySurrogate::updateLevelRows(std::size_t level,
                                             const FidelityObs& o,
                                             std::size_t keep) {
  const std::size_t n = o.x.size();
  if (keep == n) {  // a rollback alone
    forEachModel(*this, level, [keep](auto& model, std::size_t) {
      model.truncateToPoints(keep);
    });
    return true;
  }
  obs::Span span(&obs::tracer(), "gp_fit_level", "gp");
  span.fidelity(static_cast<int>(level)).outcome("append");
  const auto t0 = std::chrono::steady_clock::now();
  gp::Dataset inputs;
  inputs.reserve(n - keep);
  for (std::size_t i = keep; i < n; ++i)
    inputs.push_back(augmented(level, o.x[i]));
  const linalg::Matrix rows = rowsOf(o.y, keep, n);
  bool all_incremental = true;
  forEachModel(*this, level, [&](auto& model, std::size_t mm) {
    all_incremental &=
        model.updatePoints(keep, inputs, targetsOf(model, rows, mm));
  });
  if (obs::metrics().enabled()) {
    // One observation per appended row: the update's time split evenly
    // over its rows (their target solve is shared).
    obs::MetricsRegistry& met = obs::metrics();
    met.defineHistogram("gp.append_us", obs::MetricsRegistry::defaultBounds());
    const double per_row = elapsedUs(t0) / static_cast<double>(n - keep);
    for (std::size_t i = keep; i < n; ++i) met.observe("gp.append_us", per_row);
  }
  return all_incremental;
}

bool MultiFidelitySurrogate::hasSkippedLevels() const {
  return std::find(spec_skipped_.begin(), spec_skipped_.end(), 1) !=
         spec_skipped_.end();
}

void MultiFidelitySurrogate::appendObservations(
    const std::vector<FidelityObs>& obs, bool commit,
    std::size_t read_levels) {
  assert(fitted_ && obs.size() == levels_ &&
         committed_n_.size() == levels_);
  bool lower_changed = false;
  for (std::size_t l = 0; l < levels_; ++l) {
    const FidelityObs& o = obs[l];
    assert(o.y.rows() == o.x.size() && o.y.cols() == m_);
    const std::size_t target = o.x.size();
    const bool chained = l > 0 && opts_.mf != MfKind::kSingleFidelity;
    // AR(1) levels re-estimate rho from all their data, which rewrites every
    // residual target — growing them is never a pure row append.
    const bool append_rewrites_targets = opts_.mf == MfKind::kLinear && l > 0;
    const std::size_t cur = levelPoints(l);
    bool changed_here = false;

    if (commit) {
      assert(target >= committed_n_[l]);
      const bool grows = target > committed_n_[l];
      if (spec_dirty_[l] || (chained && lower_changed) ||
          (grows && append_rewrites_targets)) {
        denseRefitLevel(l, o);
        changed_here = true;
      } else {
        // Speculation on this level is pure rank-appends on top of the
        // committed factor: truncation is its exact (bitwise) inverse.
        assert(cur >= committed_n_[l]);
        if (cur > committed_n_[l] || grows)
          updateLevelRows(l, o, committed_n_[l]);
        changed_here = grows;
      }
      committed_n_[l] = target;
      spec_dirty_[l] = 0;
      spec_skipped_[l] = 0;
      // Self-healing: an incrementally-grown committed factor whose
      // condition estimate has blown past the recovery threshold is refit
      // densely — the dense path re-enters the jitter ladder, which
      // rank-appends structurally refuse, so this is the only way an
      // append-degraded factor regains conditioning before the next MLE.
      if (fitted_) {
        const double cond = gramConditionLog10(l);
        if (cond > recovery_.dense_refit_cond_log10) {
          denseRefitLevel(l, o);
          changed_here = true;
          recovery_events_.push_back(
              {"dense_refit", static_cast<int>(l),
               "posterior condition estimate blew past the recovery "
               "threshold; forced dense refit",
               cond});
        }
      }
    } else {
      assert(target >= cur);
      if (spec_skipped_[l] && l < read_levels) {
        // A level skipped for a narrower read set is read now: rebuild it
        // on the fantasy data (the commit still refits it densely).
        denseRefitLevel(l, o);
        spec_skipped_[l] = 0;
        changed_here = true;
      } else if (spec_skipped_[l] || (chained && lower_changed &&
                                      l >= read_levels)) {
        // Nothing reads this level before the commit, and the commit refits
        // it densely from the committed data whatever happens here.
        spec_dirty_[l] = 1;
        spec_skipped_[l] = 1;
        changed_here = true;
      } else if (chained && lower_changed) {
        denseRefitLevel(l, o);
        spec_dirty_[l] = 1;
        changed_here = true;
      } else if (target > cur) {
        if (append_rewrites_targets) {
          denseRefitLevel(l, o);
          spec_dirty_[l] = 1;
        } else if (!updateLevelRows(l, o, cur)) {
          // An internal dense fallback (jittered or non-PD factor) rebuilt
          // the model on fantasy data; truncation can no longer restore the
          // committed factor, so the next commit must refit densely.
          spec_dirty_[l] = 1;
        }
        changed_here = true;
      }
    }
    noteEscalations(l);
    lower_changed = lower_changed || changed_here;
  }
  if (commit) committed_base_ = currentBaseCounts();
}

void MultiFidelitySurrogate::restorePosterior(
    const std::vector<FidelityObs>& obs,
    const std::vector<std::size_t>& base_counts) {
  assert(obs.size() == levels_);
  // Lower levels are rebuilt before a higher level reads them through
  // augmented()/predict(), exactly as in fit().
  fitted_ = true;
  spec_skipped_.assign(levels_, 0);
  std::size_t bi = 0;
  const auto baseFor = [&](std::size_t n) {
    // Journals without base counts (or pre-fit ones) mean "all dense".
    std::size_t b = bi < base_counts.size() ? base_counts[bi] : n;
    ++bi;
    return std::min(std::max<std::size_t>(b, 2), n);
  };
  for (std::size_t l = 0; l < levels_; ++l) {
    const FidelityObs& o = obs[l];
    assert(o.x.size() >= 2 && o.y.rows() == o.x.size() && o.y.cols() == m_);
    const std::size_t n = o.x.size();
    gp::Dataset inputs;
    linalg::Matrix targets;
    buildLevelTraining(l, o, &inputs, &targets);
    forEachModel(*this, l, [&](auto& model, std::size_t mm) {
      const std::size_t base = baseFor(n);
      model.refitPosterior(
          gp::Dataset(inputs.begin(), inputs.begin() + base),
          targetsOf(model, rowsOf(targets, 0, base), mm));
      model.updatePoints(base, gp::Dataset(inputs.begin() + base, inputs.end()),
                         targetsOf(model, rowsOf(targets, base, n), mm));
    });
  }
  committed_n_.resize(levels_);
  for (std::size_t l = 0; l < levels_; ++l) committed_n_[l] = obs[l].x.size();
  spec_dirty_.assign(levels_, 0);
  committed_base_ = currentBaseCounts();
}

gp::MultiPosterior MultiFidelitySurrogate::predict(std::size_t level,
                                                   const gp::Vec& x) const {
  assert(fitted_ && level < levels_ && !spec_skipped_[level]);
  const gp::Vec input = augmented(level, x);

  gp::MultiPosterior post;
  if (opts_.obj == ObjModelKind::kCorrelated) {
    post = mt_models_[level].predict(input);
  } else {
    post.mean.resize(m_);
    post.cov = linalg::Matrix(m_, m_);
    for (std::size_t mm = 0; mm < m_; ++mm) {
      const gp::Posterior p = ind_models_[level][mm].predict(input);
      post.mean[mm] = p.mean;
      post.cov(mm, mm) = p.var;
    }
  }

  if (opts_.mf == MfKind::kLinear && level > 0) {
    // f_l = rho * f_{l-1} + delta: combine moments (levels independent).
    const gp::MultiPosterior lower = predict(level - 1, x);
    for (std::size_t mm = 0; mm < m_; ++mm)
      post.mean[mm] += rho_[level][mm] * lower.mean[mm];
    for (std::size_t mm = 0; mm < m_; ++mm)
      for (std::size_t mp = 0; mp < m_; ++mp)
        post.cov(mm, mp) +=
            rho_[level][mm] * rho_[level][mp] * lower.cov(mm, mp);
  }
  return post;
}

gp::Vec MultiFidelitySurrogate::levelMean(std::size_t level,
                                          const gp::Vec& x,
                                          const gp::Vec& lower) const {
  assert(fitted_ && level < levels_ && !spec_skipped_[level]);
  const gp::Vec input = opts_.mf == MfKind::kNonlinear && level > 0
                            ? linalg::concat(x, lower)
                            : x;
  gp::Vec mean;
  if (opts_.obj == ObjModelKind::kCorrelated) {
    mean = mt_models_[level].predictMean(input);
  } else {
    mean.resize(m_);
    for (std::size_t mm = 0; mm < m_; ++mm)
      mean[mm] = ind_models_[level][mm].predictMean(input);
  }
  if (opts_.mf == MfKind::kLinear && level > 0)
    for (std::size_t mm = 0; mm < m_; ++mm)
      mean[mm] += rho_[level][mm] * lower[mm];
  return mean;
}

gp::Vec MultiFidelitySurrogate::predictMean(std::size_t level,
                                            const gp::Vec& x) const {
  gp::Vec mean = levelMean(0, x, {});
  for (std::size_t l = 1; l <= level; ++l) mean = levelMean(l, x, mean);
  return mean;
}

std::vector<gp::Vec> MultiFidelitySurrogate::predictMeans(
    std::size_t level, const gp::Vec& x) const {
  std::vector<gp::Vec> means;
  means.reserve(level + 1);
  means.push_back(levelMean(0, x, {}));
  for (std::size_t l = 1; l <= level; ++l)
    means.push_back(levelMean(l, x, means.back()));
  return means;
}

std::vector<gp::MultiPosterior> MultiFidelitySurrogate::predictBatch(
    std::size_t level, const gp::Dataset& x,
    const std::vector<gp::MultiPosterior>* lower) const {
  assert(lower == nullptr || (level > 0 && lower->size() == x.size()));
  const auto t0 = std::chrono::steady_clock::now();
  // Candidate blocks of at least kPredictGrain fan out over the fork-join
  // pool; a smaller batch is one block, solved inline. Every posterior is
  // bit-identical to predict() whichever block solves it, so the split
  // changes timing only.
  std::vector<gp::MultiPosterior> out(x.size());
  util::forBlocks(x.size(), kPredictGrain, [&](std::size_t lo, std::size_t hi) {
    std::vector<gp::MultiPosterior> part = predictBatchImpl(
        level, gp::Dataset(x.begin() + lo, x.begin() + hi),
        lower != nullptr ? lower->data() + lo : nullptr);
    std::move(part.begin(), part.end(), out.begin() + lo);
  });
  if (obs::metrics().enabled()) {
    obs::MetricsRegistry& met = obs::metrics();
    met.defineHistogram("gp.predict_batch_us",
                        obs::MetricsRegistry::defaultBounds());
    met.observe("gp.predict_batch_us", elapsedUs(t0));
  }
  return out;
}

std::vector<gp::MultiPosterior> MultiFidelitySurrogate::predictBatchImpl(
    std::size_t level, const gp::Dataset& x,
    const gp::MultiPosterior* lower) const {
  assert(fitted_ && level < levels_ && !spec_skipped_[level]);
  std::vector<gp::MultiPosterior> out;
  if (x.empty()) return out;

  // The level below: its means become this level's fidelity feature
  // (non-linear chaining), which needs no lower covariance, or its moments
  // scale into this level's posterior (AR(1)), which does.
  std::vector<gp::MultiPosterior> below;
  if (opts_.mf == MfKind::kLinear && level > 0 && lower == nullptr) {
    below = predictBatchImpl(level - 1, x, nullptr);
    lower = below.data();
  }

  // Chained augmentation for the whole block.
  gp::Dataset inputs;
  if (opts_.mf == MfKind::kNonlinear && level > 0) {
    inputs.reserve(x.size());
    for (std::size_t c = 0; c < x.size(); ++c)
      inputs.push_back(lower != nullptr
                           ? linalg::concat(x[c], lower[c].mean)
                           : augmented(level, x[c]));
  } else {
    inputs = x;
  }

  if (opts_.obj == ObjModelKind::kCorrelated) {
    out = mt_models_[level].predictBatch(inputs);
  } else {
    out.resize(x.size());
    for (auto& post : out) {
      post.mean.resize(m_);
      post.cov = linalg::Matrix(m_, m_);
    }
    for (std::size_t mm = 0; mm < m_; ++mm) {
      const std::vector<gp::Posterior> col =
          ind_models_[level][mm].predictBatch(inputs);
      for (std::size_t c = 0; c < x.size(); ++c) {
        out[c].mean[mm] = col[c].mean;
        out[c].cov(mm, mm) = col[c].var;
      }
    }
  }

  if (opts_.mf == MfKind::kLinear && level > 0) {
    for (std::size_t c = 0; c < x.size(); ++c) {
      for (std::size_t mm = 0; mm < m_; ++mm)
        out[c].mean[mm] += rho_[level][mm] * lower[c].mean[mm];
      for (std::size_t mm = 0; mm < m_; ++mm)
        for (std::size_t mp = 0; mp < m_; ++mp)
          out[c].cov(mm, mp) +=
              rho_[level][mm] * rho_[level][mp] * lower[c].cov(mm, mp);
    }
  }
  return out;
}

std::vector<std::vector<double>> MultiFidelitySurrogate::hyperState() const {
  std::vector<std::vector<double>> state;
  for (std::size_t l = 0; l < levels_; ++l)
    forEachModel(*this, l, [&](const auto& model, std::size_t) {
      state.push_back(model.packedParams());
    });
  return state;
}

void MultiFidelitySurrogate::setHyperState(
    const std::vector<std::vector<double>>& state) {
  std::size_t i = 0;
  for (std::size_t l = 0; l < levels_; ++l)
    forEachModel(*this, l, [&](auto& model, std::size_t) {
      assert(i < state.size() &&
             state[i].size() == model.packedParams().size());
      model.applyPacked(state[i++]);
    });
  assert(i == state.size());
}

linalg::Matrix MultiFidelitySurrogate::taskCorrelation(std::size_t level) const {
  assert(correlated() && level < levels_);
  return mt_models_[level].taskCorrelation();
}

double MultiFidelitySurrogate::logMarginalLikelihood(std::size_t level) const {
  if (!fitted_ || level >= levels_)
    return std::numeric_limits<double>::quiet_NaN();
  return foldModels(
      level, 0.0, [](const auto& model) { return model.logMarginalLikelihood(); },
      std::plus<>());
}

long long MultiFidelitySurrogate::lastFitIterations(std::size_t level) const {
  if (level >= levels_) return 0;
  return foldModels(
      level, 0LL,
      [](const auto& model) -> long long { return model.lastFitIterations(); },
      std::plus<>());
}

long long MultiFidelitySurrogate::mleIterBudget(std::size_t level) const {
  // Each model reports the budget of the start list its last fit actually
  // ran, so this cannot drift from the multi-start lists in gp/.
  if (level >= levels_) return 0;
  return foldModels(
      level, 0LL,
      [](const auto& model) -> long long { return model.lastFitBudget(); },
      std::plus<>());
}

double MultiFidelitySurrogate::gramConditionLog10(std::size_t level) const {
  if (!fitted_ || level >= levels_)
    return std::numeric_limits<double>::quiet_NaN();
  const double cond = foldModels(
      level, 1.0, [](const auto& model) { return model.gramConditionEstimate(); },
      kMax);
  return std::log10(std::max(cond, 1.0));
}

double MultiFidelitySurrogate::lowerFidelityRelevance(std::size_t level) const {
  if (opts_.mf != MfKind::kNonlinear || level == 0 || level >= levels_)
    return std::numeric_limits<double>::quiet_NaN();
  // Relevance of dimension d under ARD is 1/l_d^2 (an infinite lengthscale
  // switches the dimension off). The augmented input is [x (input_dim_),
  // mu_lower (m_)], so the tail dims carry the cross-fidelity signal. The
  // level's value is the mean share over its models with a defined share.
  struct Mean {
    double sum = 0.0;
    std::size_t n = 0;
  };
  const auto share = [this](const auto& model) {
    const gp::Matern52Ard& k = model.kernel();
    assert(k.dim() == input_dim_ + m_);
    double total = 0.0, lower = 0.0;
    for (std::size_t d = 0; d < k.dim(); ++d) {
      const double ls = k.lengthscale(d);
      const double rel = 1.0 / (ls * ls);
      total += rel;
      if (d >= input_dim_) lower += rel;
    }
    const double s = total > 0.0 ? lower / total
                                 : std::numeric_limits<double>::quiet_NaN();
    return std::isnan(s) ? Mean{} : Mean{s, 1};
  };
  const Mean mean = foldModels(level, Mean{}, share, [](Mean a, Mean b) {
    return Mean{a.sum + b.sum, a.n + b.n};
  });
  return mean.n > 0 ? mean.sum / static_cast<double>(mean.n)
                    : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace cmmfo::core
