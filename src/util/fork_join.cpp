#include "util/fork_join.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace cmmfo::util {

namespace {

/// A caller publishes a batch of `count` tasks, runs unclaimed tasks itself
/// and then waits for the tasks helpers claimed (see forkJoin).
class ForkJoinPool {
 public:
  ForkJoinPool() {
    const unsigned hw = std::thread::hardware_concurrency();
    try {
      for (unsigned i = 1; i < hw; ++i)
        helpers_.emplace_back([this] { helperLoop(); });
    } catch (const std::system_error&) {
      // Run with the helpers that did start (callers run tasks themselves).
    }
  }
  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  ~ForkJoinPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : helpers_) t.join();
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& body) {
    Batch b{&body, count, 0, 0, nullptr};
    std::unique_lock<std::mutex> lk(mu_);
    open_.push_back(&b);
    work_cv_.notify_all();
    while (b.next < b.count) runOne(b, lk);
    done_cv_.wait(lk, [&] { return b.done == b.count; });
    if (b.error) std::rethrow_exception(b.error);
  }

 private:
  struct Batch {
    const std::function<void(std::size_t)>* body;
    std::size_t count;
    std::size_t next = 0;  // first unclaimed task
    std::size_t done = 0;
    std::exception_ptr error;  // first failure, rethrown by the caller
  };

  /// Claim and run the next task of `b`; `lk` is held on entry and exit.
  /// The claim that takes the last task unpublishes the batch, so a caller
  /// that saw done == count holds the only reference left.
  void runOne(Batch& b, std::unique_lock<std::mutex>& lk) {
    const std::size_t i = b.next++;
    if (b.next == b.count) open_.erase(std::find(open_.begin(), open_.end(), &b));
    lk.unlock();
    std::exception_ptr err;
    try {
      (*b.body)(i);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    if (err && !b.error) b.error = err;
    if (++b.done == b.count) done_cv_.notify_all();
  }

  void helperLoop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      work_cv_.wait(lk, [&] { return stop_ || !open_.empty(); });
      if (stop_) return;
      runOne(*open_.front(), lk);
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_, done_cv_;
  std::vector<Batch*> open_;  // published batches with unclaimed tasks
  bool stop_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace

void forkJoin(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count <= 1) {
    if (count == 1) body(0);
    return;
  }
  static ForkJoinPool pool;
  pool.run(count, body);
}

void forBlocks(std::size_t count, std::size_t grain,
               const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t blocks = std::max<std::size_t>(count / grain, 1);
  forkJoin(blocks, [&](std::size_t b) {
    body(b * count / blocks, (b + 1) * count / blocks);
  });
}

}  // namespace cmmfo::util
