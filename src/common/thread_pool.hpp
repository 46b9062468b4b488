#pragma once
/// \file thread_pool.hpp
/// A fixed-size worker pool for the server hot path. Two entry points:
/// fire-and-forget submit() for background work, and a blocking
/// parallel_for() that fans an index range out over the workers — the
/// primitive the batch verifier is built on.
///
/// The pool is deliberately minimal: no futures, no work stealing, no
/// priorities. Hot-path fan-out wants predictable chunking and a single
/// synchronization point, not a task graph.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace powai::common {

class ThreadPool final {
 public:
  /// Spawns \p threads workers; 0 means std::thread::hardware_concurrency
  /// (and at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains nothing: queued tasks that have not started are discarded;
  /// running tasks are joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues \p task for execution on some worker. Tasks must not
  /// throw; an escaping exception terminates the process.
  void submit(std::function<void()> task);

  /// Runs body(i) for every i in [0, n), spread over the workers in
  /// contiguous chunks, and blocks until all calls return. The calling
  /// thread participates, so parallel_for(n, f) with a single-threaded
  /// pool still completes. If an invocation throws, the remaining
  /// indices of that chunk are skipped (other chunks still run) and the
  /// first exception is rethrown on the caller once the range finishes.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace powai::common
