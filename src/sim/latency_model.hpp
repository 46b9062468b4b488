#pragma once
/// \file latency_model.hpp
/// The calibrated end-to-end latency model used to reproduce Figure 2.
///
/// The paper measures wall-clock latency on a live testbed; we model the
/// same quantity as
///
///   latency = 4 legs of one-way network delay        (steps 1, 4, 5, 7)
///           + server processing                      (steps 2, 3, 6)
///           + attempts × per-hash cost               (step: solving)
///
/// Calibration anchors, checked by LatencyModel.CalibrationHitsThePapersAnchors
/// in tests/test_sim.cpp: the paper reports ~31 ms to solve a 1-difficult
/// puzzle, and its Figure 2 tops out near ~900 ms for Policy 2 at
/// reputation 10 (difficulty 15). Defaults below hit both:
/// 4 × 7.5 ms + 0.6 ms ≈ 31 ms fixed overhead, and 2^15·ln2 ≈ 22.7k
/// median attempts × 38 µs ≈ 863 ms on top for d = 15.

#include <cstdint>

#include "common/rng.hpp"

namespace powai::sim {

struct LatencyModel final {
  double one_way_ms = 7.5;       ///< client↔server propagation, per leg
  double jitter_ms = 0.6;        ///< uniform [0, j] extra per leg
  double server_proc_ms = 0.6;   ///< scoring + policy + issue + verify
  double hash_cost_us = 38.0;    ///< solver cost per SHA-256 attempt

  /// End-to-end latency for a round trip whose solve took \p attempts
  /// hashes. Randomness only enters through per-leg jitter.
  [[nodiscard]] double end_to_end_ms(std::uint64_t attempts,
                                     common::Rng& rng) const;

  /// Deterministic version (no jitter) for closed-form sanity checks.
  [[nodiscard]] double end_to_end_ms_expected(double attempts) const;

  /// Validates parameters (throws std::invalid_argument).
  void validate() const;
};

/// Samples a geometric attempts-to-solve count for difficulty \p d
/// (success probability 2^-d per attempt) via inverse-CDF. Matches the
/// distribution of the real solver's attempt counter without hashing.
[[nodiscard]] std::uint64_t sample_attempts(unsigned difficulty,
                                            common::Rng& rng);

}  // namespace powai::sim
