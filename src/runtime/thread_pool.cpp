#include "runtime/thread_pool.h"

#include <algorithm>

namespace cmmfo::runtime {

ThreadPool::ThreadPool(int n_workers) {
  const int n = std::max(n_workers, 1);
  num_workers_ = n;
  workers_.reserve(n);
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Only the first caller sees live threads; concurrent/second calls find
  // workers_ already emptied. Joining drains the queue (workers exit only
  // once it is empty), preserving the no-dropped-work guarantee.
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    to_join.swap(workers_);
  }
  for (auto& w : to_join) w.join();
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // submitTo's contract: tasks do not throw
  }
}

}  // namespace cmmfo::runtime
