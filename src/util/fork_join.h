#pragma once

#include <cstddef>
#include <functional>

namespace cmmfo::util {

/// Run body(0), ..., body(count - 1) on the process-wide fork-join pool and
/// return once every call has finished.
///
/// The pool has hardware_concurrency() - 1 helper threads, started on first
/// use and joined at exit. The calling thread runs unclaimed tasks itself
/// and then waits only for tasks a helper has already claimed (and is
/// running), so a caller never waits on queued work: concurrent callers,
/// calls nested inside another call's task and callers on a machine with no
/// helpers all make progress. A count of 0 or 1 runs inline without touching
/// the pool.
///
/// Tasks may run in any order and on any thread; `body` must be safe to call
/// concurrently for distinct indices. If tasks throw, every task still runs
/// and the first exception recorded is rethrown to the caller.
void forkJoin(std::size_t count, const std::function<void(std::size_t)>& body);

/// Split [0, count) into count / grain contiguous blocks (at least one) of
/// near-equal size, at least `grain` (> 0) items each when count >= grain,
/// and run body(lo, hi) once per block on forkJoin. A count below 2 * grain
/// is one block, run inline on the calling thread; a count of 0 runs
/// nothing. The split depends on count and grain only, never on the number
/// of threads.
void forBlocks(std::size_t count, std::size_t grain,
               const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace cmmfo::util
