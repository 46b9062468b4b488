// Tests for the worker pool the batch verifier fans out on: task
// execution, parallel_for coverage/balance, and exception propagation.

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

namespace powai::common {
namespace {

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, ParallelForWorksWithSingleWorker) {
  ThreadPool pool(1);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);
}

TEST(ThreadPool, ParallelForIsReusable) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(1000, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1000);
  }
}

TEST(ThreadPool, ParallelForFromInsideAPoolTaskCompletes) {
  // Regression: the caller must be able to finish the range alone; a
  // single-worker pool whose worker itself calls parallel_for would
  // otherwise wait forever for helper tasks queued behind itself.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  std::atomic<bool> finished{false};
  pool.submit([&] {
    pool.parallel_for(500, [&](std::size_t) { count.fetch_add(1); });
    finished.store(true);
  });
  while (!finished.load()) std::this_thread::yield();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // A throw abandons the rest of its own chunk but no other chunk, so
  // nearly the whole range still ran.
  EXPECT_GE(completed.load(), 90);
  EXPECT_LE(completed.load(), 99);
}

}  // namespace
}  // namespace powai::common
