#include "runtime/eval_cache.h"

#include <algorithm>
#include <map>

#include "obs/obs.h"

namespace cmmfo::runtime {

const EvalCache::Flow* EvalCache::findLocked(std::size_t config,
                                             sim::Fidelity fidelity,
                                             std::uint64_t ns) const {
  const auto it = map_.find({ns, static_cast<std::uint64_t>(config)});
  if (it == map_.end() || it->second.upto < static_cast<int>(fidelity))
    return nullptr;
  // Touch: a hit makes this flow the most recently used.
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return &it->second;
}

std::optional<std::array<sim::Report, sim::kNumFidelities>>
EvalCache::findFlow(std::size_t config, sim::Fidelity fidelity,
                    std::uint64_t ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Flow* flow = findLocked(config, fidelity, ns);
  if (flow == nullptr) return std::nullopt;
  // Stages beyond the requested rung stay default-constructed.
  std::array<sim::Report, sim::kNumFidelities> stages{};
  for (int f = 0; f <= static_cast<int>(fidelity); ++f)
    stages[f] = flow->stages[f];
  return stages;
}

void EvalCache::countLookup(bool hit, std::uint64_t ledger) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hit)
    ++counters_[ledger].hits;
  else
    ++counters_[ledger].misses;
}

EvalCache::FlightJoin EvalCache::joinFlight(
    std::size_t config, sim::Fidelity fidelity, std::uint64_t ns,
    std::uint64_t ledger,
    std::array<sim::Report, sim::kNumFidelities>* stages, FlightLink self,
    FlightLink* leader) {
  const Key key{ns, static_cast<std::uint64_t>(config)};
  {
    std::unique_lock<std::mutex> lock(flight_mu_);
    const auto it = in_flight_.find(key);
    if (it == in_flight_.end()) {
      in_flight_.emplace(key, Flight{static_cast<int>(fidelity), self, 0});
      return FlightJoin::kLeader;
    }
    // Someone is already running this config's flow. Whether their run can
    // serve us is decided by the fidelity they are running TO; snapshot it
    // (and the leader's causal identity) before the entry disappears, then
    // wait the flight out.
    const bool deep_enough = it->second.fidelity >= static_cast<int>(fidelity);
    const FlightLink leader_link = it->second.leader;
    ++it->second.waiters;
    flight_cv_.wait(lock,
                    [&] { return in_flight_.find(key) == in_flight_.end(); });
    if (!deep_enough) return FlightJoin::kRetry;
    if (leader != nullptr) *leader = leader_link;
  }
  // The leader ran at least as deep as we need: its ladder is in the cache
  // unless the run failed completely or the flow was evicted meanwhile —
  // both send the caller back around the probe/join loop.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Flow* flow = findLocked(config, fidelity, ns);
    if (flow == nullptr) return FlightJoin::kRetry;
    std::array<sim::Report, sim::kNumFidelities> out{};
    for (int f = 0; f <= static_cast<int>(fidelity); ++f)
      out[f] = flow->stages[f];
    *stages = out;
    ++counters_[ledger != 0 ? ledger : ns].coalesced;
  }
  if (obs::metrics().enabled()) obs::metrics().add("cache.coalesced", 1.0);
  return FlightJoin::kServed;
}

int EvalCache::finishFlight(std::size_t config, std::uint64_t ns) {
  int waiters = 0;
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    const Key key{ns, static_cast<std::uint64_t>(config)};
    if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
      waiters = it->second.waiters;
      in_flight_.erase(it);
    }
  }
  flight_cv_.notify_all();
  return waiters;
}

int EvalCache::flightWaiters(std::size_t config, std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(flight_mu_);
  const auto it = in_flight_.find(Key{ns, static_cast<std::uint64_t>(config)});
  return it == in_flight_.end() ? 0 : it->second.waiters;
}

int EvalCache::enforceCapacityLocked() {
  int dropped = 0;
  while (capacity_ > 0 && map_.size() > capacity_) {
    const Key victim = lru_.back();
    const auto it = map_.find(victim);
    entries_ -= static_cast<std::size_t>(it->second.upto + 1);
    lru_.pop_back();
    map_.erase(it);
    ++evictions_;
    ++dropped;
  }
  return dropped;
}

void EvalCache::storeFlow(
    std::size_t config, sim::Fidelity upto,
    const std::array<sim::Report, sim::kNumFidelities>& stages,
    std::uint64_t ns) {
  int dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Key key{ns, static_cast<std::uint64_t>(config)};
    auto [it, fresh] = map_.try_emplace(key);
    Flow& flow = it->second;
    if (fresh) {
      lru_.push_front(key);
      flow.lru = lru_.begin();
    } else {
      lru_.splice(lru_.begin(), lru_, flow.lru);
    }
    const int new_upto = std::max(flow.upto, static_cast<int>(upto));
    for (int f = 0; f <= static_cast<int>(upto); ++f) flow.stages[f] = stages[f];
    // A fresh flow starts at upto = -1, so this also counts its first ladder.
    entries_ += static_cast<std::size_t>(new_upto - flow.upto);
    flow.upto = new_upto;
    dropped = enforceCapacityLocked();
  }
  // Metrics emission outside mu_ (the registry has its own lock).
  if (dropped > 0 && obs::metrics().enabled())
    obs::metrics().add("server.cache.evictions", static_cast<double>(dropped));
}

std::size_t EvalCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

void EvalCache::setCapacity(std::size_t max_flows) {
  int dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = max_flows;
    dropped = enforceCapacityLocked();
  }
  if (dropped > 0 && obs::metrics().enabled())
    obs::metrics().add("server.cache.evictions", static_cast<double>(dropped));
}

std::size_t EvalCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::uint64_t EvalCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [ns, c] : counters_) total += c.hits;
  return total;
}

std::uint64_t EvalCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [ns, c] : counters_) total += c.misses;
  return total;
}

std::uint64_t EvalCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

EvalCache::Stats EvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.entries = entries_;
  s.flows = map_.size();
  for (const auto& [ns, c] : counters_) {
    s.hits += c.hits;
    s.misses += c.misses;
    s.coalesced += c.coalesced;
  }
  s.evictions = evictions_;
  return s;
}

EvalCache::Stats EvalCache::stats(std::uint64_t ns,
                                  std::uint64_t ledger) const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  for (const auto& [key, flow] : map_) {
    if (key.ns != ns) continue;
    ++s.flows;
    s.entries += static_cast<std::size_t>(flow.upto + 1);
  }
  const std::uint64_t counter_key = ledger != 0 ? ledger : ns;
  if (const auto it = counters_.find(counter_key); it != counters_.end()) {
    s.hits = it->second.hits;
    s.misses = it->second.misses;
    s.coalesced = it->second.coalesced;
  }
  s.evictions = evictions_;
  return s;
}

std::vector<std::pair<std::size_t, sim::Fidelity>> EvalCache::contents(
    std::uint64_t ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::size_t, int> highest;
  for (const auto& [key, flow] : map_)
    if (key.ns == ns)
      highest.emplace(static_cast<std::size_t>(key.config), flow.upto);
  std::vector<std::pair<std::size_t, sim::Fidelity>> out;
  out.reserve(highest.size());
  for (const auto& [config, fid] : highest)
    out.emplace_back(config, static_cast<sim::Fidelity>(fid));
  return out;
}

void EvalCache::restoreCounters(std::uint64_t hits, std::uint64_t misses,
                                std::uint64_t ledger) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[ledger] = {hits, misses};
}

void EvalCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  counters_.clear();
  entries_ = 0;
  evictions_ = 0;
}

}  // namespace cmmfo::runtime
