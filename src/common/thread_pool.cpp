#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace powai::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    queue_.clear();
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;

  // Shared cursor: workers (and the caller) grab contiguous chunks until
  // the range is exhausted. Chunking keeps per-index overhead O(1/chunk)
  // while the grab-next-chunk protocol load-balances uneven bodies.
  //
  // The whole state — including a copy of the body — is shared-owned by
  // every helper closure, so the caller can return as soon as all
  // indices are accounted for (done == n) without waiting for helper
  // tasks to be scheduled at all. That keeps parallel_for safe to call
  // from inside a pool task (the caller drains the range itself; queued
  // helpers become no-ops) and avoids spinning behind unrelated work on
  // a shared pool.
  struct Range {
    std::function<void(std::size_t)> body;
    std::size_t n;
    std::size_t chunk;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
  };
  auto range = std::make_shared<Range>();
  range->body = body;
  range->n = n;
  const std::size_t parties = size() + 1;  // workers + caller
  range->chunk = std::max<std::size_t>(1, n / (parties * 4));

  auto drain = [range] {
    for (;;) {
      const std::size_t begin =
          range->next.fetch_add(range->chunk, std::memory_order_relaxed);
      if (begin >= range->n) return;
      const std::size_t end = std::min(range->n, begin + range->chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) range->body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(range->error_mu);
        if (!range->failed.exchange(true)) {
          range->error = std::current_exception();
        }
      }
      range->done.fetch_add(end - begin, std::memory_order_release);
    }
  };

  // Never enqueue more helpers than there are chunks beyond the one the
  // caller will take — a tiny batch on a wide pool should not wake every
  // worker for a no-op drain.
  const std::size_t chunks = (n + range->chunk - 1) / range->chunk;
  const std::size_t helpers = std::min(size(), chunks - 1);
  for (std::size_t w = 0; w < helpers; ++w) submit(drain);
  drain();

  // The caller has already drained the range, so this wait covers only
  // chunks mid-flight on workers.
  while (range->done.load(std::memory_order_acquire) < n) {
    std::this_thread::yield();
  }

  if (range->failed.load()) std::rethrow_exception(range->error);
}

}  // namespace powai::common
