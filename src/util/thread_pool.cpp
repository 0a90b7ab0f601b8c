#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace causumx {

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(std::max<size_t>(1, num_threads)) {
  if (num_threads_ == 1) return;  // started by the first Submit
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
  // Wait for every worker to park before returning, so NumIdle() is
  // meaningful from the first use — otherwise a RunOn immediately after
  // construction (a cold query's view scan) races worker startup, reads
  // idle == 0, and silently degrades to the serial path. No task can be
  // queued yet (the pool isn't published), so each worker necessarily
  // reaches the idle wait.
  while (idle_.load(std::memory_order_relaxed) < num_threads_) {
    std::this_thread::yield();
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  {
    util::MutexLock lock(mu_);
    if (workers_.empty()) workers_.emplace_back(&ThreadPool::WorkerLoop, this);
    tasks_.push(std::move(pt));
  }
  cv_.NotifyOne();
  return fut;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || num_threads_ == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Caller-participating dynamic scheduling. The calling thread drains
  // indices alongside the helper shards, and completion is tracked by a
  // per-index counter rather than by waiting on the helpers' futures.
  // That makes nested use safe: when ParallelFor runs on a pool worker
  // (a service query parallelizing its mining on the same pool), queued
  // helpers may never get a thread — the caller still finishes every
  // index itself, and helpers that start late find no work and exit.
  // State lives on the heap so a late-starting helper can safely probe
  // `next` after the call returned.
  struct ForState {
    explicit ForState(size_t total) : n(total) {}
    const size_t n;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    util::Mutex mu;
    util::CondVar cv;
    std::exception_ptr first_error CAUSUMX_GUARDED_BY(mu);
  };
  auto state = std::make_shared<ForState>(n);
  auto drain = [&fn, state] {
    // Claiming i < n proves the caller is still inside ParallelFor (it
    // waits for done == n), so touching `fn` is safe here.
    for (size_t i = state->next.fetch_add(1); i < state->n;
         i = state->next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        util::MutexLock lock(state->mu);
        if (!state->first_error) state->first_error = std::current_exception();
      }
      if (state->done.fetch_add(1) + 1 == state->n) {
        util::MutexLock lock(state->mu);
        state->cv.NotifyAll();
      }
    }
  };
  const size_t helpers = std::min(n - 1, num_threads_);
  for (size_t s = 0; s < helpers; ++s) {
    Submit(drain);
  }
  drain();
  util::MutexLock lock(state->mu);
  while (state->done.load() != state->n) state->cv.Wait(state->mu);
  if (state->first_error) std::rethrow_exception(state->first_error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      util::MutexLock lock(mu_);
      idle_.fetch_add(1, std::memory_order_relaxed);
      while (!stop_ && tasks_.empty()) cv_.Wait(mu_);
      idle_.fetch_sub(1, std::memory_order_relaxed);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

size_t ThreadPool::DefaultThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

}  // namespace causumx
