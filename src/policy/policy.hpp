#pragma once
/// \file policy.hpp
/// The policy module (Fig. 1, step 3): a rule-based strategy mapping a
/// client's reputation score R ∈ [0, 10] to a puzzle difficulty d. The
/// paper evaluates three concrete policies (two linear mappings and an
/// error-range mapping); an administrator's own policy is one more
/// subclass of this interface (examples/custom_policy.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/rng.hpp"

namespace powai::policy {

/// Puzzle difficulty: required leading zero bits of the solution hash.
using Difficulty = unsigned;

/// Hard ceiling any policy output is clamped to. 2^40 expected hashes is
/// already ~20 minutes at 1 GH/s; values beyond this are configuration
/// errors, not security.
inline constexpr Difficulty kMaxSupportedDifficulty = 40;

/// Lowest difficulty a policy may emit: every client pays *some* cost
/// (the paper's first property: "each client pays a cost for utilizing
/// the system").
inline constexpr Difficulty kMinSupportedDifficulty = 1;

/// Clamps a raw policy output into the supported band.
[[nodiscard]] Difficulty clamp_difficulty(double d);

/// Interface all policies implement.
///
/// `difficulty` takes the reputation score plus an Rng because some
/// policies are randomized (the paper's Policy 3 samples uniformly from
/// an ε-interval). Deterministic policies simply ignore the Rng.
/// Scores outside [0, 10] are clamped by callers of the models; policies
/// additionally tolerate (clamp) out-of-range inputs defensively.
class IPolicy {
 public:
  virtual ~IPolicy() = default;

  /// Short stable identifier ("linear", "error_range", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Maps a reputation score to puzzle difficulty.
  [[nodiscard]] virtual Difficulty difficulty(double score,
                                              common::Rng& rng) const = 0;

  /// One-line human description for operator tooling.
  [[nodiscard]] virtual std::string describe() const = 0;
};

using PolicyPtr = std::unique_ptr<IPolicy>;

}  // namespace powai::policy
