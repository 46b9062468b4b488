#pragma once
/// \file rng.hpp
/// Deterministic pseudo-random number generation. Everything in the
/// library that needs randomness takes an explicit `Rng&` so experiments
/// are reproducible from a single seed (a requirement for the benchmark
/// harness: the paper reports medians over 30 trials, which we want to be
/// re-runnable bit-for-bit).
///
/// The generator is xoshiro256++ seeded through splitmix64, the
/// combination recommended by the xoshiro authors. It satisfies
/// std::uniform_random_bit_generator so it composes with <random> too.

#include <array>
#include <cstdint>
#include <limits>

namespace powai::common {

/// splitmix64 step; used for seeding and as a cheap hash for mixing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256++ deterministic PRNG (not cryptographic — see
/// crypto::DerivedDrbg for security-relevant randomness).
class Rng final {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via
  /// splitmix64, per the reference implementation's guidance.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64 random bits.
  result_type operator()();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  /// Uses rejection sampling, so the distribution is exactly uniform.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform01();

  /// Uniform double in [lo, hi). Requires lo < hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached second variate).
  [[nodiscard]] double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  [[nodiscard]] double normal(double mean, double sigma);

  /// Exponential with rate lambda > 0 (mean 1/lambda).
  [[nodiscard]] double exponential(double lambda);

  /// True with probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Splits off an independent child generator. Streams from parent and
  /// child are decorrelated by remixing the parent's output.
  [[nodiscard]] Rng split();

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Counter-based stream derivation: the generator for (seed, stream) is
/// a pure function of the pair — the same stream id yields the same
/// sequence in every run, no matter how many other streams were drawn
/// first or from which thread. This is the non-cryptographic sibling of
/// crypto::DerivedDrbg, used where shared-Rng locking would either
/// serialize a hot path or make results depend on arrival order (e.g.
/// per-request policy randomness keyed by puzzle id).
[[nodiscard]] Rng stream_rng(std::uint64_t seed, std::uint64_t stream);

}  // namespace powai::common
