#include "core/optimizer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/acquisition.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "opt/sampling.h"
#include "pareto/dominance.h"
#include "pareto/hypervolume.h"

namespace cmmfo::core {

using sim::Fidelity;
using sim::kNumFidelities;
using sim::kNumObjectives;

CorrelatedMfMoboOptimizer::CorrelatedMfMoboOptimizer(
    const hls::DesignSpace& space, sim::FpgaToolSim& sim,
    OptimizerOptions opts, SharedRuntime shared)
    : space_(&space),
      sim_(&sim),
      opts_(opts),
      shared_(shared),
      surrogate_(space.featureDim(), kNumObjectives, kNumFidelities,
                 opts.surrogate),
      rng_(opts.seed),
      sampled_(space.size(), false) {
  surrogate_.setRecovery(opts_.recovery);
}

gp::Vec CorrelatedMfMoboOptimizer::penalizedObjectives(
    const FidelityData& data) const {
  // Sec. IV-C: illegal designs are fed back 10x worse than the current
  // worst case, teaching the models to avoid the region.
  gp::Vec worst(kNumObjectives, 1.0);
  for (const auto& y : data.y)
    for (int m = 0; m < kNumObjectives; ++m)
      worst[m] = std::max(worst[m], y[m]);
  for (auto& w : worst) w *= opts_.invalid_penalty;
  return worst;
}

void CorrelatedMfMoboOptimizer::record(const runtime::EvalResult& res) {
  // Degradation (Algorithm 2 line 13 under faults): the flow is nested, so
  // whatever prefix of stages completed is real data — a crashed impl run
  // still contributes its hls/syn reports to those fidelities' datasets.
  const int upto = res.completed_fidelity;
  for (int f = 0; f <= upto; ++f) {
    const sim::Report& r = res.stages[f];
    FidelityData& d = data_[f];
    d.configs.push_back(res.job.config);
    d.y.push_back(r.valid ? r.objectives() : penalizedObjectives(d));
    // Flight recorder: join the observation with the posterior captured at
    // pick time (predict-before-observe). Invalid reports are skipped — a
    // Sec. IV-C penalty row says nothing about surrogate calibration.
    if (r.valid && obs::recorder().enabled()) {
      if (const auto it = pending_pred_.find({res.job.config, f});
          it != pending_pred_.end()) {
        obs::CalibrationSample s;
        s.round = diag_round_;
        s.config = res.job.config;
        s.fidelity = f;
        s.believer = it->second.believer;
        s.y = r.objectives();
        s.mu = it->second.mu;
        s.var = it->second.var;
        obs::recorder().addCalibrationSample(std::move(s));
      }
    }
  }
  sampled_[res.job.config] = true;

  if (res.persistent_failure) {
    // The design reliably kills the tool at failed_stage: treat it like a
    // Sec. IV-C invalid design AT THAT STAGE so the models steer away.
    // Transient exhaustion deliberately takes the branch below instead —
    // the design may be fine, the tool was merely flaky, and poisoning the
    // datasets with a penalty would punish re-explorable regions.
    const int fs = std::clamp(res.failed_stage, 0, kNumFidelities - 1);
    FidelityData& d = data_[fs];
    d.configs.push_back(res.job.config);
    d.y.push_back(penalizedObjectives(d));
    sim::Report failed;
    failed.valid = false;
    cs_.push_back({res.job.config, static_cast<Fidelity>(fs), failed});
  } else if (upto >= 0) {
    cs_.push_back(
        {res.job.config, static_cast<Fidelity>(upto), res.stages[upto]});
  } else {
    // Nothing completed and retries exhausted: the proposal is spent (it
    // must not be re-picked) but contributes no observations.
    sim::Report failed;
    failed.valid = false;
    cs_.push_back({res.job.config, res.job.fidelity, failed});
  }
}

std::vector<FidelityObs> CorrelatedMfMoboOptimizer::buildObsFrom(
    const Datasets& data) const {
  std::vector<FidelityObs> obs(kNumFidelities);
  for (int f = 0; f < kNumFidelities; ++f) {
    const FidelityData& d = data[f];
    obs[f].x.reserve(d.configs.size());
    obs[f].y = linalg::Matrix(d.configs.size(), kNumObjectives);
    for (std::size_t i = 0; i < d.configs.size(); ++i) {
      obs[f].x.push_back(space_->features(d.configs[i]));
      for (int m = 0; m < kNumObjectives; ++m) obs[f].y(i, m) = d.y[i][m];
    }
  }
  return obs;
}

CorrelatedMfMoboOptimizer::Pick CorrelatedMfMoboOptimizer::scanBest(
    const Datasets& data, const std::vector<std::size_t>& cand,
    const std::vector<char>& taken,
    const std::array<double, kNumFidelities>& stage_seconds,
    const std::vector<std::vector<double>>& z, int only_fidelity,
    std::vector<obs::FidelityAudit>* audit) const {
  Pick best;
  bool any = false;
  // The open candidates and their features are the same at every fidelity;
  // the posteriors of the last scanned fidelity feed the next one's chain.
  std::vector<std::size_t> open;
  gp::Dataset feats;
  std::vector<gp::MultiPosterior> posts;
  int posts_level = -1;
  for (int f = 0; f < kNumFidelities; ++f) {
    if (only_fidelity >= 0 && f != only_fidelity) continue;
    const FidelityData& d = data[f];
    // Phase breakdown of the acquisition scan (scan_pareto / scan_predict /
    // scan_eipv): the flame data for the million-candidate acquisition work
    // — pure timing, gated inside ScopedPhase, never fed back.
    // Normalize this fidelity's objective space so EIPV is scale-free.
    gp::Vec lo(kNumObjectives, 1e300), hi(kNumObjectives, -1e300);
    gp::Vec range(kNumObjectives);
    std::vector<pareto::Point> front;
    {
      obs::ScopedPhase pareto_phase("scan_pareto");
      for (const auto& y : d.y)
        for (int m = 0; m < kNumObjectives; ++m) {
          lo[m] = std::min(lo[m], y[m]);
          hi[m] = std::max(hi[m], y[m]);
        }
      for (int m = 0; m < kNumObjectives; ++m)
        range[m] = std::max(hi[m] - lo[m], 1e-12);

      std::vector<pareto::Point> observed;
      observed.reserve(d.y.size());
      for (const auto& y : d.y) {
        pareto::Point p(kNumObjectives);
        for (int m = 0; m < kNumObjectives; ++m)
          p[m] = (y[m] - lo[m]) / range[m];
        observed.push_back(std::move(p));
      }
      front = pareto::paretoFilter(observed);
    }
    const pareto::Point ref(kNumObjectives, 1.1);  // v_ref beyond the worst

    const double penalty =
        opts_.cost_penalty
            ? costPenalty(stage_seconds[f], stage_seconds[kNumFidelities - 1])
            : 1.0;

    // One batched posterior sweep over the untaken candidates (single
    // cross-Gram + multi-RHS solve per GP in the chain, in blocks on the
    // fork-join pool), then the bound-pruned EIPV scan, which returns the
    // same argmax and audit as a sequential loop over every candidate.
    {
      obs::ScopedPhase predict_phase("scan_predict");
      if (posts_level < 0) {
        open.reserve(cand.size());
        feats.reserve(cand.size());
        for (std::size_t ci : cand) {
          if (taken[ci]) continue;
          open.push_back(ci);
          feats.push_back(space_->features(ci));
        }
      }
      const bool chain = f > 0 && posts_level == f - 1;
      posts = surrogate_.predictBatch(f, feats, chain ? &posts : nullptr);
      posts_level = f;
    }
    obs::FidelityAudit* fa = nullptr;
    if (audit != nullptr) {
      audit->push_back({});
      fa = &audit->back();
      fa->fidelity = f;
      fa->cost_penalty = penalty;
    }
    {
      obs::ScopedPhase eipv_phase("scan_eipv");
      std::vector<ScanCandidate> scan(open.size());
      for (std::size_t k = 0; k < open.size(); ++k) {
        const gp::MultiPosterior& post = posts[k];
        gp::Vec& mu = scan[k].mu;
        linalg::Matrix& cov = scan[k].cov;
        mu.resize(kNumObjectives);
        cov = linalg::Matrix(kNumObjectives, kNumObjectives);
        for (int m = 0; m < kNumObjectives; ++m) {
          mu[m] = (post.mean[m] - lo[m]) / range[m];
          for (int m2 = 0; m2 < kNumObjectives; ++m2)
            cov(m, m2) = post.cov(m, m2) / (range[m] * range[m2]);
        }
      }
      // Strict argmax in (fidelity, candidate) order, carried across
      // fidelities; the audit ranks by the quantity the argmax uses, ties in
      // candidate order, truncated to the recorder's top-k.
      const PeipvScan r =
          scanPeipv(scan, front, ref, z, penalty, any ? &best.peipv : nullptr,
                    fa != nullptr ? obs::kTopK : 0);
      if (r.improved) {
        any = true;
        best.config = open[r.best];
        best.fidelity = static_cast<Fidelity>(f);
        best.peipv = r.peipv;
      }
      if (fa != nullptr)
        for (const ScanScore& sc : r.top)
          fa->top.push_back({open[sc.index], sc.eipv, sc.peipv});
    }
  }
  return best;
}

void CorrelatedMfMoboOptimizer::reseedThinFidelities(
    runtime::ToolScheduler& scheduler) {
  const std::size_t n = space_->size();
  for (int f = kNumFidelities - 1; f >= 0; --f) {
    int guard = 0;
    while (data_[f].configs.size() < 2 && guard++ < 16) {
      std::size_t pick = n;  // first unsampled config after a random probe
      const std::size_t probe = rng_.index(n);
      for (std::size_t off = 0; off < n; ++off) {
        const std::size_t i = (probe + off) % n;
        if (!sampled_[i]) { pick = i; break; }
      }
      if (pick == n) return;  // space exhausted; nothing more to try
      for (const runtime::EvalResult& res :
           scheduler.runBatch({{pick, static_cast<Fidelity>(f)}}))
        record(res);
    }
  }
}

std::uint64_t CorrelatedMfMoboOptimizer::checkpointFingerprint() const {
  std::uint64_t h = 0xC11EC4B01D5EEDULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  const auto mixd = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  mix(opts_.seed);
  mix(space_->size());
  mix(space_->featureDim());
  mix(static_cast<std::uint64_t>(opts_.n_iter));
  mix(static_cast<std::uint64_t>(std::max(opts_.batch_size, 1)));
  mix(static_cast<std::uint64_t>(opts_.n_init_hls));
  mix(static_cast<std::uint64_t>(opts_.n_init_syn));
  mix(static_cast<std::uint64_t>(opts_.n_init_impl));
  mix(static_cast<std::uint64_t>(opts_.mc_samples));
  mix(static_cast<std::uint64_t>(opts_.max_candidates));
  mix(static_cast<std::uint64_t>(opts_.refit_every));
  mix(static_cast<std::uint64_t>(opts_.init_design));
  mix(static_cast<std::uint64_t>(opts_.surrogate.mf));
  mix(static_cast<std::uint64_t>(opts_.surrogate.obj));
  mix(static_cast<std::uint64_t>(opts_.cost_penalty));
  mixd(opts_.invalid_penalty);
  // Trajectory-relevant fault/retry knobs (n_workers deliberately excluded:
  // a journal may be resumed on a different farm width).
  mix(static_cast<std::uint64_t>(std::max(opts_.retry.max_attempts, 1)));
  mixd(opts_.retry.attempt_timeout_seconds);
  // Mixed only when set, so journals written before the budget knob existed
  // (and every unbudgeted run) keep their fingerprint.
  if (opts_.max_charged_seconds > 0.0) mixd(opts_.max_charged_seconds);
  // Async journals carry in-flight believers and deterministic-accumulator
  // semantics a synchronous resume cannot honor (and vice versa); mixing
  // only when enabled keeps every pre-async journal's fingerprint intact.
  if (opts_.async) {
    mix(0xA54C11D0ULL);
    // The farm width is trajectory-relevant in async mode (it caps the
    // believer depth), unlike the synchronous regime.
    mix(static_cast<std::uint64_t>(std::max(opts_.n_workers, 1)));
  }
  const sim::FaultParams& fp = sim_->faultParams();
  mixd(fp.transient_crash_prob);
  mixd(fp.hang_prob);
  mixd(fp.hang_multiplier);
  mixd(fp.license_stall_prob);
  mixd(fp.license_stall_seconds);
  mixd(fp.persistent_failure_prob);
  mix(fp.fault_seed);
  return h;
}

CheckpointState CorrelatedMfMoboOptimizer::captureCheckpoint(
    int next_round) const {
  CheckpointState st;
  st.fingerprint = checkpointFingerprint();
  st.next_round = next_round;
  st.t = t_;
  st.rng = rng_.state();
  for (int f = 0; f < kNumFidelities; ++f) {
    st.data[f].configs = data_[f].configs;
    st.data[f].y = data_[f].y;
  }
  st.cs.reserve(cs_.size());
  for (const SampleRecord& rec : cs_)
    st.cs.push_back({rec.config, static_cast<int>(rec.fidelity), rec.report});
  st.iterations.reserve(result_.iterations.size());
  for (const IterationLog& it : result_.iterations)
    st.iterations.push_back({it.iteration, static_cast<int>(it.fidelity),
                             it.config, it.peipv, it.round});
  st.picks_per_fidelity = result_.picks_per_fidelity;
  st.totals = scheduler_->totals();
  // The scheduler's job-ordered ledger, not the simulator's accumulator:
  // the latter sums attempts in thread-completion order and, in async
  // mode, already holds the charges of jobs that REALLY finished but are
  // still in flight in simulated time (journaling those would double-charge
  // after the resume re-runs them).
  st.sim_tool_seconds = scheduler_->deterministicToolSeconds();
  for (const AsyncInflight& j : inflight_meta_)
    st.async_inflight.push_back(
        {j.config, static_cast<int>(j.fidelity), j.sim_start});
  // Only this campaign's cache slice and counters enter the journal; under
  // a shared server cache other tenants' artifacts are not ours to persist.
  // In-flight configs must NOT journal their current cache state: their
  // flows may already sit in the cache (the real run finished; only the
  // simulated event is pending), and the resume re-dispatch must pay for
  // them again or the accounting — and with it the trajectory — diverges
  // from the uninterrupted run. But an in-flight job can be a REFINEMENT
  // of a config committed earlier at a lower fidelity; that committed
  // prefix was in the cache before the dispatch (the original run's job
  // only paid for the stages above it), so journal the config at its
  // committed CS fidelity instead of dropping it outright.
  const std::uint64_t ns = scheduler_->cacheNamespace();
  for (const auto& [config, fid] : cache_->contents(ns)) {
    bool in_flight = false;
    for (const AsyncInflight& j : inflight_meta_)
      if (j.config == config) {
        in_flight = true;
        break;
      }
    if (!in_flight) {
      st.cache.emplace_back(config, static_cast<int>(fid));
      continue;
    }
    for (const SampleRecord& rec : cs_)
      if (rec.config == config) {
        st.cache.emplace_back(config, static_cast<int>(rec.fidelity));
        break;
      }
  }
  const runtime::EvalCache::Stats cstats =
      cache_->stats(ns, scheduler_->cacheLedger());
  st.cache_hits = cstats.hits;
  st.cache_misses = cstats.misses;
  st.surrogate_hypers = surrogate_.hyperState();
  // Committed dense-base counts (empty before the first fit): resume
  // replays dense(base) + rank-appends, bit-identical to this run's factors.
  for (const std::size_t b : surrogate_.committedBaseCounts())
    st.surrogate_base.push_back(static_cast<std::uint64_t>(b));
  // Journal the metrics ledger so a resumed run's dump continues where the
  // crashed run left off instead of restarting the counters from zero. Not
  // on a shared cache (the server): the process-wide registry then holds
  // every co-tenant's series too, and restoring it from one campaign's
  // journal would rewind them all.
  if (obs::metrics().enabled() && shared_.cache == nullptr)
    st.metrics = obs::metrics().snapshot();
  // Same for the flight recorder's calibration aggregates and warnings.
  if (obs::recorder().enabled()) {
    st.diag = obs::recorder().state();
    st.has_diag = true;
  }
  return st;
}

void CorrelatedMfMoboOptimizer::restoreCheckpoint(const CheckpointState& st) {
  if (st.fingerprint != checkpointFingerprint())
    throw std::runtime_error(
        "checkpoint: fingerprint mismatch — journal was written by a run "
        "with different options, seed, fault model, or design space");
  for (int f = 0; f < kNumFidelities; ++f) {
    data_[f].configs = st.data[f].configs;
    data_[f].y = st.data[f].y;
  }
  cs_.clear();
  std::fill(sampled_.begin(), sampled_.end(), false);
  for (const CheckpointState::CsEntry& e : st.cs) {
    cs_.push_back(
        {e.config, static_cast<Fidelity>(e.fidelity), e.report});
    sampled_[e.config] = true;
  }
  rng_.setState(st.rng);
  t_ = st.t;
  round_ = st.next_round;
  result_.resumed = true;
  if (!st.surrogate_hypers.empty())
    surrogate_.setHyperState(st.surrogate_hypers);
  if (!st.surrogate_base.empty()) {
    // Rebuild the committed posterior exactly as the journaling run held
    // it (dense base factorization + sequential rank-appends), so rounds
    // between MLE refits continue bit-identically after resume.
    std::vector<std::size_t> base;
    base.reserve(st.surrogate_base.size());
    for (const std::uint64_t b : st.surrogate_base)
      base.push_back(static_cast<std::size_t>(b));
    surrogate_.restorePosterior(buildObsFrom(data_), base);
  }

  result_.iterations.clear();
  for (const CheckpointState::IterEntry& it : st.iterations)
    result_.iterations.push_back({it.iteration,
                                  static_cast<Fidelity>(it.fidelity),
                                  it.config, it.peipv, it.round});
  result_.picks_per_fidelity = st.picks_per_fidelity;

  scheduler_->restoreTotals(st.totals);
  sim_->setAccounting(st.sim_tool_seconds);
  scheduler_->restoreDeterministicToolSeconds(st.sim_tool_seconds);
  // Re-materialize the evaluation cache: reports are pure functions of
  // (config, stage), so the journal only stores the keys. Under a shared
  // cache the flows land in this campaign's namespace (a no-op for slots
  // another tenant already warmed — the tool is deterministic).
  const std::uint64_t ns = scheduler_->cacheNamespace();
  for (const auto& [config, fid] : st.cache) {
    std::array<sim::Report, kNumFidelities> stages{};
    const auto all = sim_->runStages(space_->config(config));
    std::copy_n(all.begin(), fid + 1, stages.begin());
    cache_->storeFlow(config, static_cast<Fidelity>(fid), stages, ns);
  }
  // Counters land on this campaign's ledger only — a co-tenant sharing the
  // artifact namespace keeps its own hit/miss accounting untouched.
  cache_->restoreCounters(st.cache_hits, st.cache_misses,
                          scheduler_->cacheLedger());
  if (obs::metrics().enabled() && shared_.cache == nullptr &&
      !st.metrics.empty())
    obs::metrics().restore(st.metrics);
  if (st.has_diag && obs::recorder().enabled())
    obs::recorder().restore(st.diag);

  // Last (the cache is fully re-materialized, so resumed workers race
  // nothing above): re-dispatch the journaled in-flight believers at their
  // ORIGINAL simulated start times — possibly before the restored clock —
  // so the simulated completion order, and the whole trajectory, replays
  // exactly. Their charges re-accrue as the re-runs complete. (Sync
  // journals never carry any: the fingerprint keeps modes apart.)
  inflight_meta_.clear();
  for (const CheckpointState::InflightEntry& e : st.async_inflight) {
    const runtime::EvalJob job{e.config, static_cast<Fidelity>(e.fidelity)};
    const std::uint64_t seq = scheduler_->submitAsyncAt(job, e.sim_start);
    inflight_meta_.push_back(
        {e.config, static_cast<Fidelity>(e.fidelity), e.sim_start, seq});
  }
}

void CorrelatedMfMoboOptimizer::writeCheckpoint(int next_round) {
  if (opts_.checkpoint_path.empty()) return;
  // A run that cannot write its journal only looks durable: fail loudly
  // (the server supervises a throwing step as a campaign failure).
  // The writer is created at the first save, after a resume has read (and
  // possibly rolled back) the journal: its one read sees the final file.
  if (!journal_) journal_.emplace(opts_.checkpoint_path);
  if (!journal_->save(captureCheckpoint(next_round)))
    throw std::runtime_error("checkpoint: cannot write journal " +
                             opts_.checkpoint_path);
}

double CorrelatedMfMoboOptimizer::topHypervolume(int round) const {
  const FidelityData& top = data_[kNumFidelities - 1];
  if (top.y.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::vector<pareto::Point> pts(top.y.begin(), top.y.end());
  obs::ScopedPhase hv_phase("hypervolume", round);
  return pareto::hypervolume(pareto::paretoFilter(pts),
                             pareto::referencePoint(pts));
}

RoundOutcome CorrelatedMfMoboOptimizer::makeOutcome(
    int round, const std::vector<runtime::EvalResult>& results,
    std::optional<double> hv) {
  RoundOutcome o;
  o.round = round;
  o.proposals = t_;
  o.done = done();
  o.resumed = result_.resumed;
  const runtime::SchedulerStats totals = scheduler_->totals();
  o.charged_seconds = totals.charged_seconds;
  o.wall_seconds = totals.wall_seconds;
  for (const runtime::EvalResult& r : results)
    o.round_charged_seconds += r.charged_seconds;
  const runtime::EvalCache::Stats cstats =
      cache_->stats(scheduler_->cacheNamespace(), scheduler_->cacheLedger());
  o.cache_hits = cstats.hits;
  o.cache_misses = cstats.misses;
  o.hypervolume = hv ? *hv : topHypervolume(round);
  // Worker occupancy of this round's tool runs (cache hits occupy no
  // worker), in job order — the server's shared-farm placement input.
  o.job_seconds.reserve(results.size());
  for (const runtime::EvalResult& r : results)
    if (!r.cache_hit)
      o.job_seconds.push_back(r.charged_seconds + r.backoff_seconds);
  o.resume_note = resume_note_;
  // Drain the surrogate's self-healing ledger into this outcome and (when
  // diagnosed) the flight recorder. Empty in the healthy regime, so the
  // pinned goldens see identical outcomes with recovery enabled.
  for (const RecoveryEvent& ev : surrogate_.drainRecoveryEvents()) {
    std::string note = ev.action + " (level " + std::to_string(ev.level) +
                       "): " + ev.reason;
    if (obs::recorder().enabled())
      obs::recorder().addRecovery(
          {round, ev.level, ev.action, ev.reason, ev.value});
    o.recovery_notes.push_back(std::move(note));
  }
  return o;
}

bool CorrelatedMfMoboOptimizer::done() const {
  if (finished_) return true;
  if (!started_) return false;
  // A spent proposal budget stops NEW proposals, but async admission drains
  // the in-flight believers first (each is a completion event / checkpoint
  // boundary of its own) — except on a max_rounds preemption, which mimics
  // a kill and leaves them journaled. Sync steps never leave jobs in flight.
  return (stopped_ || t_ >= opts_.n_iter) &&
         (preempted_ || inflight_meta_.empty());
}

RoundOutcome CorrelatedMfMoboOptimizer::start() {
  assert(!started_);
  assert(opts_.n_init_hls >= opts_.n_init_syn &&
         opts_.n_init_syn >= opts_.n_init_impl && opts_.n_init_impl >= 2);
  const std::size_t n = space_->size();

  // Bind the runtime: a private cache and an n_workers-wide farm in the
  // single-campaign regime, the server's shared cache and farm width
  // otherwise (traffic keyed under the campaign's cache namespace).
  if (shared_.cache != nullptr) {
    cache_ = shared_.cache;
  } else {
    owned_cache_ = std::make_unique<runtime::EvalCache>();
    cache_ = owned_cache_.get();
  }
  scheduler_ = std::make_unique<runtime::ToolScheduler>(
      *space_, *sim_, *cache_,
      shared_.pool > 0 ? shared_.pool : opts_.n_workers, opts_.retry,
      shared_.cache_namespace, shared_.cache_ledger);

  // ---- Resume path: restore the journal if one exists and matches. ----
  if (opts_.resume && !opts_.checkpoint_path.empty()) {
    CheckpointState st;
    std::string err;
    JournalLoadInfo jinfo;
    const bool file_exists = [&] {
      std::ifstream probe(opts_.checkpoint_path, std::ios::binary);
      return static_cast<bool>(probe);
    }();
    bool loaded = loadCheckpointAny(opts_.checkpoint_path, &st, &err, &jinfo);
    if (loaded && jinfo.rolled_back) resume_note_ = "journal: " + jinfo.note;
    if (loaded && opts_.resume_lenient &&
        st.fingerprint != checkpointFingerprint()) {
      // Lenient regime (the daemon): a foreign journal must not abort the
      // process. Quarantine it and start this campaign cold.
      const std::string q = opts_.checkpoint_path + ".quarantine";
      std::rename(opts_.checkpoint_path.c_str(), q.c_str());
      resume_note_ =
          "journal: fingerprint mismatch — quarantined to " + q +
          "; campaign restarted cold from its spec";
      loaded = false;
    }
    if (loaded) {
      restoreCheckpoint(st);
    } else if (file_exists && resume_note_.empty()) {
      // The journal exists but cannot be loaded (empty file, corrupt
      // beyond every frame, unparseable JSON). Strict mode throws — a
      // human pointing --resume at a bad file wants the error. The
      // daemon's lenient mode quarantines the evidence and cold-starts so
      // one bad file never takes down startup.
      if (!opts_.resume_lenient)
        throw std::runtime_error(err.empty()
                                     ? "checkpoint: unreadable journal " +
                                           opts_.checkpoint_path
                                     : err);
      const std::string q = opts_.checkpoint_path + ".quarantine";
      std::rename(opts_.checkpoint_path.c_str(), q.c_str());
      resume_note_ = "journal: unreadable (" +
                     (err.empty() ? std::string("no intact frame") : err) +
                     ") — quarantined to " + q +
                     "; campaign restarted cold from its spec";
    }
    // A missing journal is a cold start, not an error (first run of a
    // --resume'd job); a present-but-mismatched one throws in restore
    // (strict mode only — lenient mode quarantines above).
  }

  std::vector<runtime::EvalResult> init_results;
  if (!result_.resumed) {
    obs::ScopedPhase init_phase("init");
    // ---- Initialization (Algorithm 2, lines 4-5): nested seed subsets. ----
    // The seed designs are mutually independent, so the whole set goes to
    // the scheduler as one round; results are recorded in job order, keeping
    // the datasets identical to the sequential build-up.
    const std::size_t n_init =
        std::min<std::size_t>(opts_.n_init_hls, n > 1 ? n - 1 : n);
    std::vector<std::size_t> init;
    switch (opts_.init_design) {
      case InitDesign::kRandom:
        init = opt::randomSubset(n, n_init, rng_);
        break;
      case InitDesign::kMaximin:
        init = opt::maximinSubset(space_->allFeatures(), n_init, rng_);
        break;
    }
    std::vector<runtime::EvalJob> init_jobs;
    init_jobs.reserve(init.size());
    for (std::size_t i = 0; i < init.size(); ++i) {
      Fidelity f = Fidelity::kHls;
      if (i < static_cast<std::size_t>(opts_.n_init_impl))
        f = Fidelity::kImpl;
      else if (i < static_cast<std::size_t>(opts_.n_init_syn))
        f = Fidelity::kSyn;
      init_jobs.push_back({init[i], f});
    }
    init_results = scheduler_->runBatch(init_jobs);
    for (const runtime::EvalResult& res : init_results) record(res);
    // Injected failures can leave a fidelity with fewer than the 2 samples
    // the surrogate needs; top it up (RNG-neutral no-op when healthy).
    reseedThinFidelities(*scheduler_);
    writeCheckpoint(0);
  }

  stage_seconds_ = sim_->nominalStageSeconds();
  started_ = true;
  // A resumed process reports the last round the journal completed
  // (round_ - 1) instead of the init sentinel, so a status snapshot taken
  // before the next round doesn't understate prior progress.
  return makeOutcome(result_.resumed ? round_ - 1 : -1, init_results);
}

std::vector<std::size_t> CorrelatedMfMoboOptimizer::openConfigs() const {
  std::vector<std::size_t> open;
  open.reserve(space_->size());
  for (std::size_t i = 0; i < space_->size(); ++i) {
    if (sampled_[i]) continue;
    bool in_flight = false;
    for (const AsyncInflight& j : inflight_meta_)
      in_flight = in_flight || j.config == i;
    if (!in_flight) open.push_back(i);
  }
  return open;
}

std::vector<std::size_t> CorrelatedMfMoboOptimizer::candidates() {
  std::vector<std::size_t> cand = openConfigs();
  if (cand.size() > static_cast<std::size_t>(opts_.max_candidates)) {
    rng_.shuffle(cand);
    cand.resize(opts_.max_candidates);
  }
  return cand;
}

void CorrelatedMfMoboOptimizer::commitPosterior(int round) {
  const bool did_mle =
      round % std::max(opts_.refit_every, 1) == 0 || !surrogate_.fitted();
  {
    obs::ScopedPhase fit_phase("gp_fit", round);
    if (did_mle)
      surrogate_.fit(buildObsFrom(data_), rng_, true);
    else
      // Between MLE refits the new observations enter via O(n^2)
      // rank-append posterior updates; the commit also rolls back every
      // stacked Kriging-believer fantasy (the invalidation half of the
      // async protocol — fresh fantasies are re-derived on this posterior).
      surrogate_.appendObservations(buildObsFrom(data_), /*commit=*/true);
  }
  believer_invalidations_ += static_cast<long long>(inflight_meta_.size());
  if (!obs::recorder().enabled()) return;
  // Per-level surrogate state for the journal: learned K_task (Eq. 9), MLE
  // convergence, Gram conditioning, lower-fidelity relevance. All read-only
  // accessors — nothing feeds back into the run.
  for (int l = 0; l < kNumFidelities; ++l) {
    obs::ModelRecord mr;
    mr.round = round;
    mr.level = l;
    mr.correlated = surrogate_.correlated();
    if (mr.correlated) {
      const linalg::Matrix c = surrogate_.taskCorrelation(l);
      mr.task_corr.assign(c.rows(), std::vector<double>(c.cols(), 0.0));
      for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j) mr.task_corr[i][j] = c(i, j);
    }
    mr.lml = surrogate_.logMarginalLikelihood(l);
    mr.fit_iters = surrogate_.lastFitIterations(l);
    // Budget is only meaningful on rounds that actually ran the MLE; 0
    // disables the non-convergence check on rank-append rounds.
    mr.max_iters = did_mle ? surrogate_.mleIterBudget(l) : 0;
    mr.cond_log10 = surrogate_.gramConditionLog10(l);
    mr.lowfid_relevance = surrogate_.lowerFidelityRelevance(l);
    obs::recorder().addModelRecord(std::move(mr));
  }
}

namespace {

/// Host-side telemetry of one proposal: the acq_pick span (causal parent of
/// the scan phases) and its slo.proposal_seconds latency, both closed once
/// the pick is booked. The believer fantasy stacked after it is timed apart,
/// under phase.believers.
struct ProposalScope {
  obs::Span span{&obs::tracer(), "acq_pick", "optimizer"};
  bool timed = obs::metrics().enabled();
  std::chrono::steady_clock::time_point start =
      timed ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point{};
  ~ProposalScope() {
    if (timed)
      obs::metrics().observe(
          "slo.proposal_seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
  }
};

}  // namespace

void CorrelatedMfMoboOptimizer::logPick(
    obs::Span& span, const Pick& pick, int round, int iteration, int depth,
    std::vector<obs::FidelityAudit> audit) {
  ++result_.picks_per_fidelity[static_cast<int>(pick.fidelity)];
  result_.iterations.push_back(
      {iteration, pick.fidelity, pick.config, pick.peipv, round});
  span.round(round)
      .fidelity(static_cast<int>(pick.fidelity))
      .id(static_cast<std::int64_t>(pick.config))
      .value(pick.peipv);
  if (obs::metrics().enabled())
    obs::metrics().observe(
        std::string("acq.peipv.") + sim::fidelityName(pick.fidelity),
        pick.peipv);
  if (!obs::recorder().enabled()) return;
  obs::DecisionRecord dr;
  dr.round = round;
  dr.winner_config = pick.config;
  dr.winner_fidelity = static_cast<int>(pick.fidelity);
  dr.winner_peipv = pick.peipv;
  dr.believer_depth = depth;
  dr.believer_invalidations = believer_invalidations_;
  dr.rationale =
      depth == 0 ? "argmax cost-penalized EIPV across fidelities (Eq. 10)"
      : opts_.async
          ? "async argmax cost-penalized EIPV conditioned on " +
                std::to_string(depth) + " in-flight believer(s)"
          : "Kriging-believer batch fill at the round fidelity";
  dr.fidelities = std::move(audit);
  obs::recorder().addDecision(std::move(dr));
  // Predict-before-observe: snapshot the posterior at every stage the job
  // will run, before its observation (or fantasy) can enter the model.
  // Extra predict() calls only — no RNG, no state change, so the
  // trajectory is bit-identical with diagnostics off.
  for (int f = 0; f <= static_cast<int>(pick.fidelity); ++f) {
    const gp::MultiPosterior post =
        surrogate_.predict(f, space_->features(pick.config));
    PendingPrediction pp;
    pp.mu = post.mean;
    pp.var.resize(kNumObjectives);
    for (int m = 0; m < kNumObjectives; ++m) pp.var[m] = post.cov(m, m);
    pp.believer = depth > 0;
    pending_pred_[{pick.config, f}] = std::move(pp);
  }
}

void CorrelatedMfMoboOptimizer::believe(std::optional<Datasets>& fantasy,
                                        std::size_t config, Fidelity fidelity,
                                        std::size_t read_levels) {
  if (!fantasy) fantasy = data_;
  std::vector<gp::Vec> means = surrogate_.predictMeans(
      static_cast<std::size_t>(fidelity), space_->features(config));
  for (std::size_t f = 0; f < means.size(); ++f) {
    (*fantasy)[f].configs.push_back(config);
    (*fantasy)[f].y.push_back(std::move(means[f]));
  }
  // Speculative (uncommitted) rank-appends: the next commit or full fit
  // rolls the fantasy back by exact factor truncation. Levels at or above
  // read_levels are not read again before that commit, so the surrogate
  // skips their refits.
  surrogate_.appendObservations(buildObsFrom(*fantasy), /*commit=*/false,
                                read_levels);
}

std::vector<runtime::EvalJob> CorrelatedMfMoboOptimizer::admitBatch(
    int round) {
  // Greedy q-PEIPV batch via Kriging believer on one candidate subset and
  // one z draw: argmax, condition the posterior on the predicted mean of
  // the pick, re-argmax. With q = 1 no fantasy step runs and this is
  // exactly the paper's line 11.
  //
  // The first pick decides the round's fidelity (the Eq. 10 cost/value
  // trade-off is a per-round investment decision); believer picks fill the
  // rest of the batch with diverse configs at that same stage. A
  // homogeneous round parallelizes cleanly on the farm — one impl job
  // mixed into a batch of hls jobs would dominate the round's makespan.
  const std::vector<std::size_t> cand = candidates();
  const auto z = drawStdNormals(opts_.mc_samples, kNumObjectives, rng_);
  const int q = std::min<int>({std::max(opts_.batch_size, 1),
                               opts_.n_iter - t_,
                               static_cast<int>(cand.size())});
  std::vector<char> taken(space_->size(), 0);
  std::vector<runtime::EvalJob> jobs;
  std::optional<Datasets> fantasy;
  for (int b = 0; b < q; ++b) {
    Pick pick;
    {
      obs::ScopedPhase acq_phase("acquisition", round);
      ProposalScope scope;
      std::vector<obs::FidelityAudit> audit;
      pick = scanBest(fantasy ? *fantasy : data_, cand, taken, stage_seconds_,
                      z, b == 0 ? -1 : static_cast<int>(jobs.front().fidelity),
                      obs::recorder().enabled() ? &audit : nullptr);
      taken[pick.config] = 1;
      jobs.push_back({pick.config, pick.fidelity});
      logPick(scope.span, pick, round, t_ + b, b, std::move(audit));
    }
    // Every later pick of the round scans the first pick's fidelity only,
    // so the fantasy need not reach the levels above it.
    if (b + 1 < q) {
      obs::ScopedPhase believe_phase("believers", round);
      believe(fantasy, pick.config, pick.fidelity,
              static_cast<std::size_t>(jobs.front().fidelity) + 1);
    }
  }
  return jobs;
}

void CorrelatedMfMoboOptimizer::admitAsync(int round) {
  const int cap = std::max(opts_.n_workers, 1);
  const auto inflight = [this] {
    return static_cast<int>(inflight_meta_.size());
  };
  // Re-derive believer fantasies for everything still in flight, in
  // dispatch order, each predicted on the posterior INCLUDING the
  // previously stacked fantasies (the greedy Kriging-believer chain).
  // Every pick re-decides the fidelity, so fantasies reach every level.
  constexpr std::size_t kAllLevels = kNumFidelities;
  std::optional<Datasets> fantasy;
  if (!inflight_meta_.empty()) {
    obs::ScopedPhase believe_phase("believers", round);
    for (const AsyncInflight& j : inflight_meta_)
      believe(fantasy, j.config, j.fidelity, kAllLevels);
  }

  const std::vector<char> no_taken(space_->size(), 0);
  while (inflight() < cap && t_ + inflight() < opts_.n_iter) {
    Pick pick;
    {
      obs::ScopedPhase acq_phase("acquisition", round);
      // Candidates are redrawn per proposal because each dispatch shrinks
      // the open pool.
      const std::vector<std::size_t> cand = candidates();
      if (cand.empty()) break;  // in-flight jobs hold the rest of the space
      const auto z = drawStdNormals(opts_.mc_samples, kNumObjectives, rng_);
      ProposalScope scope;
      std::vector<obs::FidelityAudit> audit;
      // Every pick re-decides the fidelity (Eq. 10) against the believer-
      // augmented posterior — heterogeneous fidelities in flight is the
      // whole point of killing the round barrier.
      pick = scanBest(fantasy ? *fantasy : data_, cand, no_taken,
                      stage_seconds_, z, -1,
                      obs::recorder().enabled() ? &audit : nullptr);
      logPick(scope.span, pick, round, t_ + inflight(), inflight(),
              std::move(audit));
      const double sim_start = scheduler_->simNow();
      const std::uint64_t seq =
          scheduler_->submitAsync({pick.config, pick.fidelity});
      inflight_meta_.push_back({pick.config, pick.fidelity, sim_start, seq});
    }
    // Stack this pick's own fantasy only if another proposal follows in
    // this step — at W=1 the loop exits here, so the sequential path never
    // speculates and stays bit-identical to Algorithm 2.
    if (inflight() < cap && t_ + inflight() < opts_.n_iter) {
      obs::ScopedPhase believe_phase("believers", round);
      believe(fantasy, pick.config, pick.fidelity, kAllLevels);
    }
  }
}

RoundOutcome CorrelatedMfMoboOptimizer::stepRound() {
  assert(started_ && !finished_);
  if (done()) return makeOutcome(round_ - 1, {});
  const int round = round_;
  obs::ScopedPhase round_phase("round", round);
  diag_round_ = round;

  // 1. Space exhaustion, checked BEFORE any RNG is consumed so both
  //    admission policies stay bit-identical to Algorithm 2 at width 1.
  //    Sync steps always propose here (done() is false, nothing in flight).
  const int in_flight = static_cast<int>(inflight_meta_.size());
  bool propose = !stopped_ && t_ + in_flight < opts_.n_iter &&
                 in_flight < std::max(opts_.n_workers, 1);
  if (propose && openConfigs().empty()) {
    if (in_flight == 0) {
      stopped_ = true;  // space exhausted before the proposal budget
      return makeOutcome(round - 1, {});
    }
    propose = false;  // drain what's flying, then stop
  }

  // 2. Commit the posterior on the REAL datasets.
  if (propose) commitPosterior(round);

  // 3. Admission.
  std::vector<runtime::EvalJob> batch;
  if (!opts_.async)
    batch = admitBatch(round);
  else if (propose)
    admitAsync(round);
  if (opts_.async && inflight_meta_.empty()) return makeOutcome(round - 1, {});

  // 4. Collect: the barrier'd batch, or the earliest simulated completion.
  std::vector<runtime::EvalResult> results;
  {
    obs::ScopedPhase eval_phase("evaluate", round);
    if (!opts_.async) {
      results = scheduler_->runBatch(batch);
    } else {
      runtime::ToolScheduler::AsyncCompletion ev = scheduler_->nextCompletion();
      std::erase_if(inflight_meta_, [&ev](const AsyncInflight& j) {
        return j.seq == ev.seq;
      });
      results.push_back(std::move(ev.result));
    }
    for (const runtime::EvalResult& res : results) record(res);
  }

  // 5. The shared tail.
  return commitStep(round, results);
}

RoundOutcome CorrelatedMfMoboOptimizer::commitStep(
    int round, const std::vector<runtime::EvalResult>& results) {
  // Predictions of still-in-flight jobs must survive this boundary; a sync
  // step consumes every prediction it made.
  for (const runtime::EvalResult& res : results)
    for (int f = 0; f < kNumFidelities; ++f)
      pending_pred_.erase({res.job.config, f});
  t_ += static_cast<int>(results.size());
  ++result_.rounds_run;

  // One hypervolume per committed step, shared by every consumer (diag
  // convergence, metrics, the outcome). Pure observation.
  const bool diag_on = obs::recorder().enabled();
  const bool metrics_on = obs::metrics().enabled();
  const double hv = topHypervolume(round);

  if (diag_on) {
    // Convergence record: hypervolume of the current top-fidelity set,
    // cumulative charged tool-seconds, cache counters; ADRS comes from the
    // recorder's oracle (set by the harness) when available.
    std::vector<std::size_t> selected;
    selected.reserve(cs_.size());
    for (const SampleRecord& rec : cs_) selected.push_back(rec.config);
    const runtime::EvalCache::Stats cstats =
        cache_->stats(scheduler_->cacheNamespace(), scheduler_->cacheLedger());
    obs::recorder().endRound(round, hv, selected,
                              scheduler_->deterministicToolSeconds(),
                              cstats.hits, cstats.misses);
  }
  // Diagnostics-only progression metrics: computed from already-recorded
  // data when enabled, never read back by the algorithm.
  if (metrics_on) {
    obs::metrics().set("opt.round", static_cast<double>(round));
    obs::metrics().set("opt.proposals", static_cast<double>(t_));
    if (opts_.async) {
      obs::metrics().set("opt.believer_depth",
                         static_cast<double>(inflight_meta_.size()));
      obs::metrics().set("opt.believer_invalidations",
                         static_cast<double>(believer_invalidations_));
    }
    if (!data_[kNumFidelities - 1].y.empty())
      obs::metrics().set("opt.hypervolume.impl", hv);
  }

  {
    obs::ScopedPhase ckpt_phase("checkpoint", round);
    writeCheckpoint(round + 1);
  }
  if (opts_.max_rounds > 0 && result_.rounds_run >= opts_.max_rounds) {
    // Preemption point; the journal resumes from here. Like a kill, it
    // stops WITHOUT draining: in-flight believers stay journaled for the
    // resume to re-dispatch.
    stopped_ = true;
    preempted_ = true;
  }
  if (opts_.max_charged_seconds > 0.0 &&
      scheduler_->totals().charged_seconds >= opts_.max_charged_seconds)
    stopped_ = true;  // tool-time budget exhausted; in-flight jobs drain
  ++round_;
  return makeOutcome(round, results, hv);
}

OptimizeResult CorrelatedMfMoboOptimizer::finish() {
  assert(started_ && !finished_);
  finished_ = true;
  result_.cs = cs_;
  // The job-ordered ledger: bit-stable across farm widths and consistent
  // with what the journal carries (a preempted run's unprocessed in-flight
  // charges are excluded on both sides).
  // Bitwise equal to the simulator's accumulator in the healthy sequential
  // regime.
  result_.tool_seconds = scheduler_->deterministicToolSeconds();
  const runtime::SchedulerStats totals = scheduler_->totals();
  result_.wall_seconds = totals.wall_seconds;
  result_.tool_runs = totals.tool_runs;
  result_.cache_hits = totals.cache_hits;
  result_.attempts = totals.attempts;
  result_.transient_failures = totals.transient_failures;
  result_.timeouts = totals.timeouts;
  result_.persistent_failures = totals.persistent_failures;
  result_.degraded_jobs = totals.degraded_jobs;
  result_.wasted_seconds = totals.retry_seconds_wasted;
  result_.backoff_seconds = totals.backoff_seconds;
  return result_;
}

const MultiFidelitySurrogate& CorrelatedMfMoboOptimizer::surrogate() {
  // The commit the next round would open with; it reads no RNG, and that
  // commit then finds nothing left to do.
  if (surrogate_.hasSkippedLevels())
    surrogate_.appendObservations(buildObsFrom(data_), /*commit=*/true);
  return surrogate_;
}

OptimizeResult CorrelatedMfMoboOptimizer::run() {
  start();
  while (!done()) stepRound();
  return finish();
}

}  // namespace cmmfo::core
