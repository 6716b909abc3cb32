#include "server/campaign.h"

#include <stdexcept>
#include <utility>

#include "bench_suite/benchmarks.h"
#include "obs/obs.h"
#include "scenario/generator.h"

namespace cmmfo::server {

bool validCampaignId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::uint64_t cacheNamespaceOf(const CampaignSpec& spec) {
  // FNV-1a over the benchmark name, then a splitmix fold of the sim seed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : spec.benchmark) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= spec.sim_seed + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  // Namespace 0 is the single-campaign default; never hand it to a tenant.
  return h == 0 ? 1 : h;
}

std::uint64_t cacheLedgerOf(const CampaignSpec& spec) {
  // FNV-1a over the campaign id, avalanched. Ids are unique per registry
  // and stable across daemon restarts, so a resumed campaign lands on its
  // own journaled counters and co-tenants never share a ledger.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : spec.id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  // 0 means "use the namespace" downstream; never hand it to a tenant.
  return h == 0 ? 1 : h;
}

std::string specToJson(const CampaignSpec& spec) {
  std::string s = "{\"id\":";
  util::putString(s, spec.id);
  s += ",\"benchmark\":";
  util::putString(s, spec.benchmark);
  s += ",\"sim_seed\":";
  util::putU64(s, spec.sim_seed);
  s += ",\"weight\":";
  util::putDouble(s, spec.weight);
  s += ",\"seed\":";
  util::putU64(s, spec.opts.seed);
  s += ",\"n_iter\":";
  util::putInt(s, spec.opts.n_iter);
  s += ",\"batch_size\":";
  util::putInt(s, spec.opts.batch_size);
  s += ",\"n_init_hls\":";
  util::putInt(s, spec.opts.n_init_hls);
  s += ",\"n_init_syn\":";
  util::putInt(s, spec.opts.n_init_syn);
  s += ",\"n_init_impl\":";
  util::putInt(s, spec.opts.n_init_impl);
  s += ",\"mc_samples\":";
  util::putInt(s, spec.opts.mc_samples);
  s += ",\"max_candidates\":";
  util::putInt(s, spec.opts.max_candidates);
  s += ",\"refit_every\":";
  util::putInt(s, spec.opts.refit_every);
  s += ",\"mle_restarts\":";
  util::putInt(s, spec.opts.surrogate.mtgp.mle_restarts);
  s += ",\"max_mle_iters\":";
  util::putInt(s, spec.opts.surrogate.mtgp.max_mle_iters);
  if (spec.opts.max_charged_seconds > 0.0) {
    // Written only when set, mirroring the checkpoint fingerprint rule:
    // unbudgeted specs keep their pre-knob JSON byte-for-byte.
    s += ",\"max_charged_seconds\":";
    util::putDouble(s, spec.opts.max_charged_seconds);
  }
  if (spec.opts.async) {
    // Same write-when-set rule. n_workers rides along because it is
    // trajectory-relevant in async mode (believer cap + fingerprint).
    s += ",\"async\":true,\"n_workers\":";
    util::putInt(s, spec.opts.n_workers);
  }
  s += "}";
  return s;
}

bool specFromJson(const util::Json& j, CampaignSpec* out, std::string* err) {
  const auto fail = [err](const char* what) {
    if (err != nullptr) *err = what;
    return false;
  };
  if (j.kind != util::Json::kObj) return fail("spec must be an object");
  CampaignSpec spec;
  spec.id = j.strOr("id", "");
  if (!validCampaignId(spec.id))
    return fail("invalid campaign id (want 1-64 chars of [A-Za-z0-9_-])");
  spec.benchmark = j.strOr("benchmark", spec.benchmark);
  if (const util::Json* v = j.find("sim_seed")) {
    if (!util::getU64(*v, spec.sim_seed)) return fail("bad sim_seed");
  }
  spec.weight = j.numOr("weight", spec.weight);
  if (!(spec.weight > 0.0)) return fail("weight must be > 0");
  if (const util::Json* v = j.find("seed")) {
    if (!util::getU64(*v, spec.opts.seed)) return fail("bad seed");
  }
  core::OptimizerOptions& o = spec.opts;
  o.n_iter = static_cast<int>(j.numOr("n_iter", o.n_iter));
  o.batch_size = static_cast<int>(j.numOr("batch_size", o.batch_size));
  o.n_init_hls = static_cast<int>(j.numOr("n_init_hls", o.n_init_hls));
  o.n_init_syn = static_cast<int>(j.numOr("n_init_syn", o.n_init_syn));
  o.n_init_impl = static_cast<int>(j.numOr("n_init_impl", o.n_init_impl));
  o.mc_samples = static_cast<int>(j.numOr("mc_samples", o.mc_samples));
  o.max_candidates =
      static_cast<int>(j.numOr("max_candidates", o.max_candidates));
  o.refit_every = static_cast<int>(j.numOr("refit_every", o.refit_every));
  o.max_charged_seconds =
      j.numOr("max_charged_seconds", o.max_charged_seconds);
  if (o.max_charged_seconds < 0.0)
    return fail("max_charged_seconds must be >= 0");
  if (const util::Json* v = j.find("async")) {
    if (v->kind != util::Json::kBool) return fail("async must be a boolean");
    o.async = v->b;
  }
  o.n_workers = static_cast<int>(j.numOr("n_workers", o.n_workers));
  if (o.async && o.n_workers < 1)
    return fail("async campaigns need n_workers >= 1");
  if (o.n_iter < 1 || o.batch_size < 1 || o.mc_samples < 1 ||
      o.max_candidates < 1 || o.refit_every < 1)
    return fail("optimizer knobs must be >= 1");
  if (o.n_init_impl < 2 || o.n_init_syn < o.n_init_impl ||
      o.n_init_hls < o.n_init_syn)
    return fail("init sizes must nest: hls >= syn >= impl >= 2");
  const int restarts = static_cast<int>(
      j.numOr("mle_restarts", o.surrogate.mtgp.mle_restarts));
  const int iters = static_cast<int>(
      j.numOr("max_mle_iters", o.surrogate.mtgp.max_mle_iters));
  if (restarts < 0 || iters < 1) return fail("bad surrogate effort knobs");
  o.surrogate.mtgp.mle_restarts = restarts;
  o.surrogate.gp.mle_restarts = restarts;
  o.surrogate.mtgp.max_mle_iters = iters;
  o.surrogate.gp.max_mle_iters = iters;
  *out = std::move(spec);
  return true;
}

const char* stateName(CampaignState s) {
  switch (s) {
    case CampaignState::kQueued: return "queued";
    case CampaignState::kRunning: return "running";
    case CampaignState::kPaused: return "paused";
    case CampaignState::kDone: return "done";
    case CampaignState::kCancelled: return "cancelled";
    case CampaignState::kFailed: return "failed";
  }
  return "unknown";
}

bool terminal(CampaignState s) {
  return s == CampaignState::kDone || s == CampaignState::kCancelled ||
         s == CampaignState::kFailed;
}

std::shared_ptr<const bench_suite::Benchmark> makeBenchmarkFor(
    const std::string& benchmark) {
  // "scenario:<seed>[:dies=d][:size=S]" names resolve to the procedural
  // generator; anything else is a suite benchmark. Either way the campaign
  // co-owns the benchmark so the simulator's kernel pointer stays alive.
  if (scenario::isScenarioName(benchmark))
    return scenario::generateFromName(benchmark).benchmark;
  return std::make_shared<const bench_suite::Benchmark>(
      bench_suite::makeBenchmark(benchmark));
}

std::unique_ptr<sim::FpgaToolSim> makeSimFor(const CampaignSpec& spec,
                                             const bench_suite::Benchmark& bm) {
  auto sim = std::make_unique<sim::FpgaToolSim>(
      bm.kernel, sim::DeviceModel::virtex7Vc707(), bm.sim_params,
      spec.sim_seed);
  sim->setDieMap(bm.die_map);
  return sim;
}

std::shared_ptr<const hls::DesignSpace> makeSpaceFor(
    const std::string& benchmark) {
  const std::shared_ptr<const bench_suite::Benchmark> bm =
      makeBenchmarkFor(benchmark);
  return std::make_shared<const hls::DesignSpace>(
      hls::DesignSpace::buildPruned(bm->kernel, bm->spec));
}

Campaign::Campaign(CampaignSpec spec,
                   std::shared_ptr<const hls::DesignSpace> space,
                   core::SharedRuntime shared)
    : spec_(std::move(spec)),
      space_(std::move(space)),
      bench_(makeBenchmarkFor(spec_.benchmark)),
      shared_(shared),
      sim_(makeSimFor(spec_, *bench_)),
      stepper_(std::make_unique<core::CampaignStepper>(*space_, *sim_,
                                                       spec_.opts, shared_)),
      trace_id_(cacheLedgerOf(spec_)) {}

CampaignState Campaign::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

StatusSnapshot Campaign::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatusSnapshot s;
  s.id = spec_.id;
  s.state = state_;
  s.rounds = last_.round + 1;
  s.proposals = last_.proposals;
  s.charged_seconds = last_.charged_seconds;
  s.wall_seconds = last_.wall_seconds;
  s.cache_hits = last_.cache_hits;
  s.cache_misses = last_.cache_misses;
  s.hypervolume = last_.hypervolume;
  s.resumed = last_.resumed;
  s.weight = spec_.weight;
  s.restarts = restarts_;
  s.error = error_;
  return s;
}

double Campaign::deficit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_.charged_seconds / spec_.weight;
}

bool Campaign::beginStep() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != CampaignState::kQueued) return false;
  if (Clock::now() < eligible_at_) return false;  // restart backoff
  state_ = CampaignState::kRunning;
  step_begin_ = Clock::now();
  stall_reported_ = false;
  return true;
}

core::RoundOutcome Campaign::runStep() {
  // Campaign root trace context: trace_id = span_id = the campaign's ledger
  // fingerprint (deterministic, stable across restarts, never 0). Every
  // span minted inside this step — round, acq_pick, scheduler job, tool
  // attempt — inherits the trace_id and parents into this root, and the
  // convention parent_span_id == trace_id marks a campaign-root child.
  obs::ContextGuard root(&obs::tracer(), {trace_id_, trace_id_});
  return stepper_->step();
}

CampaignState Campaign::endStep(const core::RoundOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  last_ = outcome;
  if (outcome.done) {
    state_ = CampaignState::kDone;
    result_ = stepper_->finish();
  } else if (pending_cancel_) {
    state_ = CampaignState::kCancelled;
    result_ = stepper_->finish();
  } else if (pending_pause_) {
    state_ = CampaignState::kPaused;
  } else {
    state_ = CampaignState::kQueued;
  }
  pending_pause_ = pending_cancel_ = false;
  return state_;
}

void Campaign::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = CampaignState::kFailed;
  error_ = what;
  pending_pause_ = pending_cancel_ = false;
}

CampaignState Campaign::scheduleRestart(std::chrono::milliseconds backoff,
                                        const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  error_ = what;  // status keeps showing the last failure across restarts
  if (pending_cancel_) {
    // The tenant asked to cancel while the failing step was in flight; a
    // failed step has no outcome to finalize, so cancel in place.
    state_ = CampaignState::kCancelled;
    pending_pause_ = pending_cancel_ = false;
    return state_;
  }
  // Rebuild the whole execution stack from the spec. The old stepper may
  // have died mid-round with arbitrary internal state; resuming lenient
  // from the journal restores the last good checkpoint (or cold-starts when
  // no journal was configured/survives) and replays deterministically.
  CampaignSpec rspec = spec_;
  rspec.opts.resume = true;
  rspec.opts.resume_lenient = true;
  sim_ = makeSimFor(rspec, *bench_);
  stepper_ = std::make_unique<core::CampaignStepper>(*space_, *sim_,
                                                     rspec.opts, shared_);
  ++restarts_;
  eligible_at_ = Clock::now() + backoff;
  state_ = pending_pause_ ? CampaignState::kPaused : CampaignState::kQueued;
  pending_pause_ = pending_cancel_ = false;
  return state_;
}

int Campaign::restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restarts_;
}

Campaign::Clock::time_point Campaign::eligibleAt() const {
  std::lock_guard<std::mutex> lock(mu_);
  return eligible_at_;
}

double Campaign::stepSeconds(Clock::time_point now) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != CampaignState::kRunning) return 0.0;
  return std::chrono::duration<double>(now - step_begin_).count();
}

bool Campaign::markStalled() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != CampaignState::kRunning || stall_reported_) return false;
  stall_reported_ = true;
  return true;
}

bool Campaign::requestPause(std::string* err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (terminal(state_)) {
    if (err != nullptr) *err = "campaign is already terminal";
    return false;
  }
  if (state_ == CampaignState::kQueued) state_ = CampaignState::kPaused;
  else if (state_ == CampaignState::kRunning) pending_pause_ = true;
  return true;  // pausing a paused campaign is a no-op, not an error
}

bool Campaign::requestResume(std::string* err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (terminal(state_)) {
    if (err != nullptr) *err = "campaign is already terminal";
    return false;
  }
  if (state_ == CampaignState::kPaused) state_ = CampaignState::kQueued;
  pending_pause_ = false;  // cancel an in-flight pause request
  return true;
}

bool Campaign::requestCancel(std::string* err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (terminal(state_)) {
    if (err != nullptr) *err = "campaign is already terminal";
    return false;
  }
  if (state_ == CampaignState::kRunning) {
    pending_cancel_ = true;  // applied between rounds by endStep()
    return true;
  }
  // Queued/paused: cancel immediately. A campaign that never stepped has
  // no partial result to finalize.
  state_ = CampaignState::kCancelled;
  if (stepper_->started()) result_ = stepper_->finish();
  return true;
}

std::optional<core::OptimizeResult> Campaign::result() const {
  std::lock_guard<std::mutex> lock(mu_);
  return result_;
}

}  // namespace cmmfo::server
