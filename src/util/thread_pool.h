// Fixed-size worker pool used to parallelize treatment-pattern mining
// across grouping patterns (optimization (c) in Section 5.2 of the paper).

#ifndef CAUSUMX_UTIL_THREAD_POOL_H_
#define CAUSUMX_UTIL_THREAD_POOL_H_

#include <atomic>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace causumx {

/// A minimal fixed-size thread pool.
///
/// Tasks are std::function<void()>; Submit returns a future for the task's
/// completion. The pool joins all workers on destruction after draining the
/// queue. Thread-safe.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1; 0 is clamped to 1). ParallelFor
  /// runs inline on one worker, so a lone worker starts on first Submit.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future that becomes ready when it finishes.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// complete. The calling thread participates, so nested calls from a
  /// pool worker (service queries parallelizing on the shared pool)
  /// cannot deadlock even when every worker is busy. Exceptions in tasks
  /// propagate from this call (first one).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t NumThreads() const { return num_threads_; }  // started or not

  /// Workers currently parked waiting for a task (approximate; lock-free
  /// read). The nested-parallelism gate in RunOn uses this.
  size_t NumIdle() const { return idle_.load(std::memory_order_relaxed); }

  /// Hardware concurrency with a sane floor of 1.
  static size_t DefaultThreads();

  /// ParallelFor when a pool is at hand AND has idle capacity, a plain
  /// serial loop otherwise. The sharded execution paths call this for
  /// their nested data-parallel stages: when every worker is already
  /// busy (e.g. phase-2 mining saturates the pool across grouping
  /// patterns), dispatching inner shards/chunks buys no parallelism and
  /// only pays queue traffic, so the caller inlines the identical loop —
  /// and when workers free up (the straggler tail, or pipeline stages
  /// outside the mining fan-out), inner work spreads across them. The
  /// gate only chooses a schedule; the computation, and therefore the
  /// result, is the same either way.
  static void RunOn(ThreadPool* pool, size_t n,
                    const std::function<void(size_t)>& fn) {
    if (pool != nullptr && n > 1 && pool->NumIdle() > 0) {
      pool->ParallelFor(n, fn);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  }

 private:
  void WorkerLoop();

  const size_t num_threads_;
  util::Mutex mu_;
  std::vector<std::thread> workers_ CAUSUMX_GUARDED_BY(mu_);
  std::queue<std::packaged_task<void()>> tasks_ CAUSUMX_GUARDED_BY(mu_);
  util::CondVar cv_;
  std::atomic<size_t> idle_{0};
  bool stop_ CAUSUMX_GUARDED_BY(mu_) = false;
};

}  // namespace causumx

#endif  // CAUSUMX_UTIL_THREAD_POOL_H_
