#pragma once
/// \file solver.hpp
/// The puzzle solver (Fig. 1, client side). Performs the nonce search:
/// repeatedly hash (prefix || nonce) until the digest has the required
/// number of leading zero bits. Supports bounded searches, cancellation,
/// and multi-threaded strided search.
///
/// The inner loop is lane-parallel: every SHA-256 backend finishes
/// nonces lane_width() at a time from the shared midstate
/// (PuzzleContext::check_many) — 16 per AVX-512 sweep (also under
/// shani_avx512, which keeps single streams on SHA-NI), 8 per AVX2
/// sweep, 2 interleaved streams on SHA-NI, 1 on generic and ARMv8-CE —
/// writing only the 8 nonce bytes of a pre-padded final block per
/// probe. The observable result — (found, nonce, attempts) — is
/// bit-identical across all backends: the first qualifying nonce in
/// probe order always wins and attempts counts probes up to and
/// including it.

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/error.hpp"
#include "pow/puzzle.hpp"

namespace powai::pow {

/// Knobs for one solve call.
struct SolveOptions final {
  /// Give up after this many attempts (0 = unbounded). An unbounded
  /// search terminates with probability 1 but callers under latency
  /// budgets should bound it: 2^(d+4) attempts fail with probability
  /// < e^-16.
  std::uint64_t max_attempts = 0;

  /// Worker threads; 1 = search inline on the calling thread.
  unsigned threads = 1;

  /// First nonce tried (workers stride from here). Lets tests make
  /// solutions deterministic and callers resume an aborted search.
  std::uint64_t start_nonce = 0;

  /// Optional external cancellation flag (not owned); the search stops
  /// soon after it becomes true.
  const std::atomic<bool>* cancel = nullptr;
};

/// Outcome of a solve call.
struct SolveResult final {
  Solution solution;            ///< valid iff `found`
  std::uint64_t attempts = 0;   ///< total hash evaluations across threads
  bool found = false;
};

/// Outcome of one strided scan (a single worker's share of a solve).
struct ScanResult final {
  std::uint64_t nonce = 0;      ///< valid iff `found`
  std::uint64_t attempts = 0;   ///< probes made, including the hit
  bool found = false;
};

/// Stateless solver (safe to share across threads; each call is
/// independent).
class Solver final {
 public:
  /// Searches for a nonce solving \p puzzle. Returns a found=false result
  /// when max_attempts is exhausted or `cancel` fires first.
  [[nodiscard]] SolveResult solve(const Puzzle& puzzle,
                                  const SolveOptions& options = {}) const;

  /// One strided scan: probes start, start + stride, ... until a nonce
  /// qualifies, \p max_attempts probes are spent (0 = unbounded), or
  /// \p cancel / \p stop (both optional, read-only, polled every few
  /// hundred probes) becomes true. Probes are handed to check_many a
  /// poll interval at a time and swept lane_width() at a time within
  /// it; the result is deterministic and backend-independent — the
  /// first qualifying nonce in probe order, with attempts counting every
  /// probe up to and including it. This is the primitive solve() runs
  /// per worker, exposed for tests and callers that manage their own
  /// threads.
  [[nodiscard]] static ScanResult scan(const PuzzleContext& context,
                                       std::uint64_t start,
                                       std::uint64_t stride,
                                       std::uint64_t max_attempts,
                                       const std::atomic<bool>* cancel = nullptr,
                                       const std::atomic<bool>* stop = nullptr);
};

}  // namespace powai::pow
