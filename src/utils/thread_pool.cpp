#include "utils/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedkemf::utils {

namespace {

/// Registry lookups are a mutex + map probe; the pool dispatches on every
/// task, so resolve the instruments once and hammer the cached references.
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Histogram& task_wait_seconds;
  obs::Histogram& task_seconds;
  obs::Counter& tasks;

  static PoolMetrics& get() {
    static PoolMetrics metrics{
        obs::MetricsRegistry::global().gauge("pool.queue_depth"),
        obs::MetricsRegistry::global().histogram("pool.task_wait_seconds"),
        obs::MetricsRegistry::global().histogram("pool.task_seconds"),
        obs::MetricsRegistry::global().counter("pool.tasks"),
    };
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_task(QueuedTask task) {
  PoolMetrics& metrics = PoolMetrics::get();
  metrics.tasks.add(1);
  metrics.task_wait_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - task.enqueued)
          .count());
  const auto start = std::chrono::steady_clock::now();
  {
    obs::TraceSpan span("pool.task");
    task.fn();
  }
  metrics.task_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
}

void ThreadPool::submit(std::function<void()> task) {
  QueuedTask queued{std::move(task), std::chrono::steady_clock::now()};
  if (workers_.empty()) {
    run_task(std::move(queued));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(queued));
    ++in_flight_;
    PoolMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared state lives on the heap and is owned by every shard task, so a
  // worker that observes "no more work" after the caller has already been
  // released can still touch it safely.
  struct SharedState {
    std::atomic<std::size_t> next{0};
    std::size_t shards_remaining = 0;
    std::exception_ptr first_error;
    std::mutex mutex;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<SharedState>();
  const std::size_t shards = std::min(workers_.size(), n);
  state->shards_remaining = shards;

  for (std::size_t s = 0; s < shards; ++s) {
    submit([state, n, &fn] {
      std::exception_ptr error;
      for (;;) {
        const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          fn(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (error && !state->first_error) state->first_error = error;
      if (--state->shards_remaining == 0) state->done_cv.notify_all();
    });
  }
  std::exception_ptr first_error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock, [&] { return state->shards_remaining == 0; });
    first_error = state->first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      PoolMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
    }
    run_task(std::move(task));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace fedkemf::utils
