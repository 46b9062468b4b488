#include "pow/solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

namespace powai::pow {

namespace {

/// Probes per check_many call, and how often the cancel / stop flags
/// are polled: an atomic load per hash would dominate at low
/// difficulties. A power of two, so it is a whole number of lane groups
/// at every lane width and only a budget-clipped call ends mid-group.
constexpr std::uint64_t kCheckInterval = 256;
static_assert((kCheckInterval & (kCheckInterval - 1)) == 0,
              "kCheckInterval must be a power of two");

}  // namespace

ScanResult Solver::scan(const PuzzleContext& context, std::uint64_t start,
                        std::uint64_t stride, std::uint64_t max_attempts,
                        const std::atomic<bool>* cancel,
                        const std::atomic<bool>* stop) {
  ScanResult result;
  std::uint64_t nonce = start;
  while (max_attempts == 0 || result.attempts < max_attempts) {
    // The flags are consulted before the first probe, so a scan
    // launched after a sibling already won does no work.
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return result;
    }
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return result;
    }

    // Clipped to the remaining budget so a bounded scan never probes
    // past max_attempts.
    std::uint64_t batch = kCheckInterval;
    if (max_attempts != 0) {
      batch = std::min<std::uint64_t>(batch, max_attempts - result.attempts);
    }
    const std::size_t hit =
        context.check_many(nonce, stride, static_cast<std::size_t>(batch));
    if (hit < batch) {
      // First qualifying nonce in probe order; the probes after it in
      // the same batch are not counted — identical to a scalar scan
      // that would have stopped there.
      result.attempts += hit + 1;
      result.nonce = nonce + stride * hit;
      result.found = true;
      return result;
    }
    result.attempts += batch;
    nonce += stride * batch;
  }
  return result;
}

SolveResult Solver::solve(const Puzzle& puzzle,
                          const SolveOptions& options) const {
  if (options.threads == 0) {
    throw std::invalid_argument("Solver::solve: threads must be >= 1");
  }

  SolveResult result;

  // One context for the whole solve: serialized prefix + midstate are
  // computed once and shared read-only by every worker.
  const PuzzleContext context(puzzle);

  if (options.threads == 1) {
    const ScanResult w = scan(context, options.start_nonce, 1,
                              options.max_attempts, options.cancel, nullptr);
    result.attempts = w.attempts;
    result.found = w.found;
    if (w.found) result.solution = Solution{puzzle.puzzle_id, w.nonce};
    return result;
  }

  const std::uint64_t n = options.threads;
  // Exact budget split: the first (max % n) workers get one extra
  // attempt, so the per-worker budgets sum to exactly max_attempts.
  // Workers whose share is zero are not spawned at all — a zero budget
  // means "unbounded" to scan().
  const std::uint64_t base = options.max_attempts / n;
  const std::uint64_t extra = options.max_attempts % n;

  std::atomic<bool> someone_found{false};
  std::vector<ScanResult> results(options.threads);
  {
    std::vector<std::jthread> workers;
    workers.reserve(options.threads);
    for (std::uint64_t w = 0; w < n; ++w) {
      const std::uint64_t budget =
          options.max_attempts == 0 ? 0 : base + (w < extra ? 1 : 0);
      if (options.max_attempts != 0 && budget == 0) break;
      workers.emplace_back([&, w, budget] {
        ScanResult r = scan(context, options.start_nonce + w, n, budget,
                            options.cancel, &someone_found);
        if (r.found) someone_found.store(true, std::memory_order_relaxed);
        results[w] = r;
      });
    }
  }  // join

  for (const ScanResult& w : results) {
    result.attempts += w.attempts;
    if (w.found && !result.found) {
      result.found = true;
      result.solution = Solution{puzzle.puzzle_id, w.nonce};
    }
  }
  return result;
}

}  // namespace powai::pow
