// Unit tests for the worker pool used by treatment-pattern mining.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace causumx {
namespace {

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.Submit([&] { counter.fetch_add(1); });
  fut.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> runs{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
}

// The process's thread count (the Threads: line of /proc/self/status),
// or -1 where that file is missing.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// The thread count once the workers of earlier tests, joined but not
// necessarily reaped by the kernel yet, are gone (this binary starts no
// other threads).
int SettledThreads() {
  int n = ProcessThreads();
  for (int i = 0; i < 2000 && n > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = ProcessThreads();
  }
  return n;
}

// A one-worker pool runs ParallelFor and RunOn inline, so its worker
// serves Submit alone and starts with the first one.
TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  const int before = SettledThreads();
  ThreadPool pool(0);
  EXPECT_EQ(pool.NumThreads(), 1u);
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](size_t) { counter.fetch_add(1); });
  ThreadPool::RunOn(&pool, 10, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 20);
  if (before >= 0) {
    EXPECT_EQ(ProcessThreads(), before);
  }
  pool.Submit([&] { counter.fetch_add(1); }).get();
  EXPECT_EQ(counter.load(), 21);
  EXPECT_EQ(pool.NumThreads(), 1u);
  if (before >= 0) {
    EXPECT_EQ(ProcessThreads(), before + 1);
  }
}

TEST(ThreadPoolTest, ManyTasksAccumulateCorrectly) {
  ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(10000, [&](size_t i) {
    sum.fetch_add(static_cast<int64_t>(i));
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

TEST(ThreadPoolTest, DefaultThreadsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

TEST(ThreadPoolTest, SequentialSubmitsOrdered) {
  // Futures resolve independently; results must all arrive.
  ThreadPool pool(3);
  std::vector<std::future<void>> futs;
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    futs.push_back(pool.Submit([&] { done.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace causumx
