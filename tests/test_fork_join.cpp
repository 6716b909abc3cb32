// The process-wide fork-join pool behind the parallel MLE starts, the
// blocked batch prediction and the acquisition scan. ForkJoin* runs under
// TSan (run_benches.sh --tsan-smoke).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
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
