// The process-wide fork-join pool behind the parallel MLE starts, the
// blocked batch prediction, the acquisition scan and the blocked context
// build. ForkJoin* runs under TSan (run_benches.sh --tsan-smoke).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/fork_join.h"

namespace cmmfo::util {
namespace {

TEST(ForkJoin, ZeroAndOneTaskRunInline) {
  int calls = 0;
  forkJoin(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  std::size_t index = 99;
  forkJoin(1, [&](std::size_t i) {
    ++calls;
    index = i;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(ran_on, caller);
}

TEST(ForkJoin, RunsEveryTaskExactlyOnce) {
  for (const std::size_t n : {2u, 3u, 17u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    forkJoin(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

// forBlocks splits [0, count) into count / grain contiguous blocks of at
// least `grain` items each (one inline block below 2 * grain), whatever
// the number of threads.
TEST(ForkJoin, ForBlocksCoversTheRangeInContiguousBlocks) {
  struct Case {
    std::size_t count, grain, blocks;
  };
  for (const Case c : {Case{0, 4, 0}, Case{1, 4, 1}, Case{7, 4, 1},
                       Case{8, 4, 2}, Case{9, 4, 2}, Case{6436, 64, 100},
                       Case{10287, 1024, 10}, Case{18432, 1024, 18}}) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    forBlocks(c.count, c.grain, [&](std::size_t lo, std::size_t hi) {
      std::lock_guard<std::mutex> lk(mu);
      seen.emplace_back(lo, hi);
    });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), c.blocks) << c.count;
    std::size_t next = 0;
    for (const auto& [lo, hi] : seen) {
      EXPECT_EQ(lo, next) << c.count;
      EXPECT_GE(hi - lo, std::min(c.grain, c.count)) << c.count;
      next = hi;
    }
    EXPECT_EQ(next, c.count);
  }

  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  forBlocks(2047, 1024, [&](std::size_t, std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ForkJoin, NestedCallsComplete) {
  // Every outer task runs a whole inner batch; callers help with their own
  // batches, so nesting on the one pool cannot stall.
  constexpr std::size_t kOuter = 8, kInner = 16;
  std::vector<std::vector<int>> seen(kOuter, std::vector<int>(kInner, 0));
  forkJoin(kOuter, [&](std::size_t o) {
    forkJoin(kInner, [&](std::size_t i) { seen[o][i] += 1; });
  });
  for (const auto& row : seen)
    for (const int v : row) EXPECT_EQ(v, 1);
}

TEST(ForkJoin, ConcurrentCallersComplete) {
  // Several threads publish batches at once, each nesting another batch in
  // its tasks: every caller gets back exactly its own results.
  constexpr int kCallers = 4;
  constexpr std::size_t kTasks = 64;
  std::vector<std::vector<long>> out(kCallers, std::vector<long>(kTasks, 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 20; ++rep)
        forkJoin(kTasks, [&](std::size_t i) {
          long acc = 0;
          forkJoin(3, [&](std::size_t j) {
            if (j == 0) acc = static_cast<long>(c) * 1000 + static_cast<long>(i);
          });
          out[c][i] = acc;
        });
    });
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c)
    for (std::size_t i = 0; i < kTasks; ++i)
      EXPECT_EQ(out[c][i], static_cast<long>(c) * 1000 + static_cast<long>(i));
}

TEST(ForkJoin, PropagatesExceptionAfterEveryTaskRan) {
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(forkJoin(hits.size(),
                        [&](std::size_t i) {
                          hits[i].fetch_add(1);
                          if (i % 5 == 2) throw std::runtime_error("task failed");
                        }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool is still usable after a failed batch.
  std::atomic<int> after{0};
  forkJoin(10, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10);
}

}  // namespace
}  // namespace cmmfo::util
