#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace cmmfo::runtime {

/// Unbounded MPMC handoff queue for completion notifications: workers push
/// results the moment they finish (real completion order, NOT submission
/// order) and a consumer blocks in pop() until one arrives. This is what
/// lets the scheduler react to the first finished job instead of waiting on
/// each job in submission order.
template <typename T>
class CompletionQueue {
 public:
  void push(T value) {
    // Notify under the lock: once the item is visible a consumer may pop it
    // and destroy the queue, so the pushing thread must be done with cv_ by
    // the time it releases mu_.
    std::lock_guard<std::mutex> lock(mu_);
    items_.push(std::move(value));
    cv_.notify_one();
  }

  /// Blocks until an item is available.
  T pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !items_.empty(); });
    T value = std::move(items_.front());
    items_.pop();
    return value;
  }

  /// Non-blocking variant; false when the queue is empty right now.
  bool tryPop(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop();
    return true;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<T> items_;
};

/// Fixed-size worker pool backing the tool scheduler.
///
/// Tasks are executed FIFO; with one worker the pool therefore runs tasks in
/// exactly the order they were submitted, which is what lets the runtime
/// reproduce the sequential optimizer's accounting bit-for-bit. shutdown()
/// (and the destructor) finishes every already-queued task before joining,
/// so no accepted work is silently dropped.
///
/// Shutdown contract: submitTo() concurrent with shutdown() is
/// well-defined — each submission is either fully accepted (it will run and
/// push its result) or fully rejected (submitTo returns false).
class ThreadPool {
 public:
  explicit ThreadPool(int n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int numWorkers() const { return num_workers_; }

  /// Tasks accepted but not yet picked up by a worker, read under the pool
  /// lock (same synchronization as submitTo/worker handoff, so an observer
  /// thread polling the depth mid-batch never races the queue).
  std::size_t queueDepth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// Drain the queue, join the workers and reject all future submissions.
  /// Idempotent and safe to race with submitTo(); must not be called from a
  /// worker thread.
  void shutdown();

  /// Completion-notification submit: run `fn` on a worker and push its
  /// result into `done` the moment it finishes, so results become visible
  /// in COMPLETION order across tasks. Returns false (task never runs,
  /// nothing is pushed) on a stopped pool, so a consumer that counts
  /// expected completions must check the return value.
  /// `fn` must be noexcept-equivalent: an escaping exception would be lost
  /// with the notification, so callers wrap fallible work themselves.
  template <typename F, typename T>
  bool submitTo(CompletionQueue<T>& done, F&& fn) {
    auto task = std::make_shared<std::decay_t<F>>(std::forward<F>(fn));
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return false;
      queue_.push([task, &done] { done.push((*task)()); });
    }
    cv_.notify_one();
    return true;
  }

 private:
  void workerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  int num_workers_ = 0;
  std::vector<std::thread> workers_;  // emptied by shutdown() after joining
};

}  // namespace cmmfo::runtime
