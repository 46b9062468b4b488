#pragma once
/// \file difficulty.hpp
/// Difficulty arithmetic. A d-difficult puzzle requires a SHA-256 output
/// with d leading zero bits; each attempt succeeds independently with
/// probability 2^-d, so attempts-to-solve is geometric. These helpers
/// convert between difficulty, expected work, time, and confidence.

#include <cstdint>

namespace powai::pow {

/// Expected number of hash evaluations to solve difficulty \p d (2^d).
[[nodiscard]] double expected_hashes(unsigned d);

/// Probability that at least one of \p attempts hashes solves a
/// d-difficult puzzle: 1 - (1 - 2^-d)^attempts.
[[nodiscard]] double solve_probability(unsigned d, std::uint64_t attempts);

/// Attempts needed to solve with probability \p confidence ∈ (0, 1):
/// the \p confidence-quantile of the geometric distribution.
[[nodiscard]] double attempts_for_confidence(unsigned d, double confidence);

/// Expected solve time in milliseconds at \p hash_rate hashes/second.
[[nodiscard]] double expected_solve_ms(unsigned d, double hash_rate);

/// Median solve time in milliseconds (ln 2 · mean, geometric median).
[[nodiscard]] double median_solve_ms(unsigned d, double hash_rate);

/// Smallest difficulty whose expected solve time at \p hash_rate meets or
/// exceeds \p target_ms (clamped to [1, 63]).
[[nodiscard]] unsigned difficulty_for_target_ms(double target_ms,
                                                double hash_rate);

}  // namespace powai::pow
