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

}  // namespace cmmfo::util
