#pragma once

// Fixed-size thread pool with a deterministic parallel_for.
//
// The federated-learning simulator dispatches sampled clients onto this pool.
// Determinism contract: parallel_for(n, fn) invokes fn(i) exactly once for
// each i in [0, n); each fn(i) must derive all randomness from i (the
// framework hands clients counter-based RNG streams), so results are
// bit-identical regardless of pool size, including size 0 (inline execution).

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedkemf::utils {

class ThreadPool {
 public:
  /// Creates `num_threads` workers. 0 means "run everything inline on the
  /// caller's thread" — handy for debugging and for single-core machines.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

  /// Runs fn(0..n-1) across the pool and blocks until all complete.
  /// Exceptions thrown by fn are rethrown on the caller's thread (first one
  /// wins; the rest are dropped).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// Queue entry: the task plus its enqueue stamp, so the pool can report
  /// queue-wait latency (obs histogram "pool.task_wait_seconds").
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  void run_task(QueuedTask task);

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace fedkemf::utils
