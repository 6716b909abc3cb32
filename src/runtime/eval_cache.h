#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/tool.h"

namespace cmmfo::runtime {

/// Thread-safe memo of FPGA-tool reports keyed on (namespace, config id,
/// fidelity).
///
/// The cache exploits the nesting of the design flow (Fig. 2): a single flow
/// invocation up to fidelity h produces the reports of every stage i <= h
/// along the way — exactly as a real Vivado impl run leaves the HLS and
/// logic-synthesis artifacts behind. storeFlow() therefore populates all
/// stages up to the charged fidelity at once, so a later proposal of the
/// same configuration at any lower fidelity is a free hit.
///
/// Multi-campaign serving (the optimization server) shares ONE long-lived
/// cache across tenants, which needs two extensions — both dormant at their
/// defaults so single-campaign users see the original behavior:
///  - namespacing: every operation takes a `ns` key (default 0). Campaigns
///    against the same benchmark/simulator fingerprint share a namespace and
///    hit each other's artifacts; unrelated campaigns cannot collide on raw
///    config ids. Hit/miss counters are kept under a separate `ledger` key
///    (default: the namespace itself) so two live campaigns SHARING a
///    namespace still account — and checkpoint — their own traffic; a
///    restoreCounters() on one tenant can never clobber a co-tenant.
///  - bounded memory: setCapacity(N) turns on LRU eviction over *flows*
///    (all stages of one (ns, config) evict together, preserving the
///    storeFlow invariant). Evictions count into stats() and, when metrics
///    are enabled, the `server.cache.evictions` counter. Capacity 0 (the
///    default) never evicts.
class EvalCache {
 public:
  /// The whole stage ladder [0..fidelity] in one lookup, or nothing — by
  /// the storeFlow invariant it is present either fully or not at all.
  /// Refreshes the flow's LRU position on a hit but leaves the hit/miss
  /// counters alone: the scheduler probes when a job runs (at dispatch) and
  /// books each lookup via countLookup() when it folds the job, in event
  /// order, so checkpointed counters stay bit-stable across runs and
  /// resumes.
  std::optional<std::array<sim::Report, sim::kNumFidelities>> findFlow(
      std::size_t config, sim::Fidelity fidelity, std::uint64_t ns = 0) const;

  /// Deterministic counter hook paired with findFlow: books one hit or miss
  /// against counter key `ledger` (passed resolved — no ns fallback here).
  void countLookup(bool hit, std::uint64_t ledger);

  // ---- Single-flight coalescing ------------------------------------------
  // Co-tenant campaigns sharing a namespace that request the
  // same (config, fidelity) concurrently must not launch duplicate tool
  // runs. After a cache miss the requester calls joinFlight():
  //   kLeader — nobody is running this config's flow: the caller runs the
  //             tool and MUST call finishFlight() afterwards, success or
  //             not (waiters block until then).
  //   kServed — a concurrent flow at >= the requested fidelity finished and
  //             its ladder was returned; one `coalesced` count is booked on
  //             the caller's ledger (the original miss count stands — the
  //             artifact was not cached when asked for).
  //   kRetry  — the concurrent flow was too shallow, failed, or was evicted
  //             before we looked: re-probe the cache and join again.

  enum class FlightJoin { kLeader, kServed, kRetry };

  /// Causal identity of the span that leads a flight, so coalesced
  /// followers can link their trace to the leader's tool run. Plain data —
  /// the cache stores and returns it without interpreting it.
  /// (No default member initializers: the zero default below is spelled at
  /// the use sites so it stays usable as a default argument in-class.)
  struct FlightLink {
    std::uint64_t trace_id;
    std::uint64_t span_id;
  };

  /// See above. On kServed, `stages[0..fidelity]` is filled from the cache.
  /// `self` is registered as the flight's leader identity on kLeader; on
  /// kServed the leader's identity is copied into `*leader` (when non-null)
  /// so the follower can record a cross-trace link.
  FlightJoin joinFlight(std::size_t config, sim::Fidelity fidelity,
                        std::uint64_t ns, std::uint64_t ledger,
                        std::array<sim::Report, sim::kNumFidelities>* stages,
                        FlightLink self = FlightLink{0, 0},
                        FlightLink* leader = nullptr);

  /// Ends the flight registered by a kLeader join and wakes every waiter.
  /// The leader stores its result (if any) via storeFlow() BEFORE calling
  /// this, so woken waiters find the artifacts. Returns the number of
  /// requests that blocked on this flight (the coalesce fan-out).
  int finishFlight(std::size_t config, std::uint64_t ns);

  /// Number of requests currently blocked on (ns, config)'s flight — 0 when
  /// no flight is registered. Test/diagnostic hook for deterministically
  /// arranging coalescing.
  int flightWaiters(std::size_t config, std::uint64_t ns);

  /// Record one flow run: `stages[0..upto]` are the per-stage reports of a
  /// single invocation that ran up to `upto`. Entries beyond `upto` are
  /// ignored. Re-stores overwrite (the tool is deterministic, so the value
  /// cannot actually change); a deeper re-store extends the cached ladder.
  void storeFlow(std::size_t config, sim::Fidelity upto,
                 const std::array<sim::Report, sim::kNumFidelities>& stages,
                 std::uint64_t ns = 0);

  /// Number of cached (config, stage) entries across every namespace.
  std::size_t size() const;
  void clear();

  /// LRU bound in *flows* (cached configs); 0 = unbounded.
  void setCapacity(std::size_t max_flows);
  std::size_t capacity() const;

  /// Aggregate counters over all namespaces (the pre-server interface).
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

  /// One consistent snapshot of the cache state, for the journal and the
  /// server's stats endpoint.
  struct Stats {
    std::size_t entries = 0;  // (config, stage) pairs
    std::size_t flows = 0;    // distinct (ns, config) ladders
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Requests served by joining another requester's in-flight tool run
    /// (single-flight coalescing) instead of launching a duplicate.
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;  // always the cache-wide total
  };
  Stats stats() const;
  /// Restricted to one namespace (entries/flows of `ns`; hits/misses of
  /// the counter key `ledger` when non-zero, else of `ns`; evictions stay
  /// cache-wide — an eviction caused by tenant A can land on tenant B's
  /// flow, so a per-tenant split would be misleading).
  Stats stats(std::uint64_t ns, std::uint64_t ledger = 0) const;

  /// The cached flows of `ns` as (config, highest cached fidelity) pairs,
  /// sorted by config id. Because the tool is deterministic, this is a
  /// complete serialization: reports can be regenerated with
  /// FpgaToolSim::run.
  std::vector<std::pair<std::size_t, sim::Fidelity>> contents(
      std::uint64_t ns = 0) const;

  /// Restore one ledger's counters from a checkpoint (entries are
  /// re-stored separately via storeFlow, since reports are recomputable).
  /// Only the given counter key is overwritten — a co-tenant ledger in the
  /// same artifact namespace is untouched.
  void restoreCounters(std::uint64_t hits, std::uint64_t misses,
                       std::uint64_t ledger = 0);

 private:
  struct Key {
    std::uint64_t ns = 0;
    std::uint64_t config = 0;
    bool operator==(const Key& o) const {
      return ns == o.ns && config == o.config;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix-style avalanche of the two words.
      std::uint64_t h = k.ns + 0x9e3779b97f4a7c15ULL * (k.config + 1);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      return static_cast<std::size_t>(h * 0x94d049bb133111ebULL);
    }
  };
  struct Flow {
    int upto = -1;  // highest stage cached
    std::array<sim::Report, sim::kNumFidelities> stages{};
    std::list<Key>::iterator lru;  // position in lru_ (front = most recent)
  };
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t coalesced = 0;
  };

  /// Lookup + LRU touch on a hit; requires mu_ held.
  const Flow* findLocked(std::size_t config, sim::Fidelity fidelity,
                         std::uint64_t ns) const;
  /// Evict LRU flows beyond capacity; requires mu_ held. Returns how many
  /// flows were dropped (for the metrics emission outside the lock).
  int enforceCapacityLocked();

  mutable std::mutex mu_;
  std::unordered_map<Key, Flow, KeyHash> map_;
  mutable std::list<Key> lru_;
  std::unordered_map<std::uint64_t, Counters> counters_;
  std::size_t capacity_ = 0;  // flows; 0 = unbounded
  std::size_t entries_ = 0;   // sum over flows of (upto + 1)
  std::uint64_t evictions_ = 0;

  struct Flight {
    int fidelity = 0;           // target fidelity the leader is running to
    FlightLink leader{0, 0};    // causal identity of the leader's span
    int waiters = 0;            // requests blocked on this flight
  };

  /// Single-flight registry: (ns, config) -> the flight a leader is
  /// currently running. Guarded by its own lock so waiters never hold up
  /// cache traffic; the two locks are never held together.
  std::mutex flight_mu_;
  std::condition_variable flight_cv_;
  std::unordered_map<Key, Flight, KeyHash> in_flight_;
};

}  // namespace cmmfo::runtime
