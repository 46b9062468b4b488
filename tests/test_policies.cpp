// Tests for the paper's three policies.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "policy/error_range_policy.hpp"
#include "policy/linear_policy.hpp"
#include "policy/policy.hpp"

namespace powai::policy {
namespace {

TEST(ClampDifficulty, Band) {
  EXPECT_EQ(clamp_difficulty(0.0), kMinSupportedDifficulty);
  EXPECT_EQ(clamp_difficulty(-5.0), kMinSupportedDifficulty);
  EXPECT_EQ(clamp_difficulty(1e9), kMaxSupportedDifficulty);
  EXPECT_EQ(clamp_difficulty(7.0), 7u);
  EXPECT_EQ(clamp_difficulty(std::nan("")), kMinSupportedDifficulty);
}

// ---------------------------------------------------------------------------
// Policy 1 / Policy 2 — the paper's exact integer mappings (§III.A).
// ---------------------------------------------------------------------------

TEST(Policy1, MatchesPaperTable) {
  // "we map a 1-difficult puzzle to a client with a reputation score 0, a
  // 2-difficult puzzle to a client with a reputation score of 1, and so on"
  const LinearPolicy p = LinearPolicy::policy1();
  common::Rng rng(1);
  for (int r = 0; r <= 10; ++r) {
    EXPECT_EQ(p.difficulty(static_cast<double>(r), rng),
              static_cast<Difficulty>(r + 1))
        << "R=" << r;
  }
}

TEST(Policy2, MatchesPaperTable) {
  // "we map a 5-difficult puzzle to the client with reputation score 0, a
  // 6-difficult puzzle to a client with a reputation score of 1, and so on"
  const LinearPolicy p = LinearPolicy::policy2();
  common::Rng rng(1);
  for (int r = 0; r <= 10; ++r) {
    EXPECT_EQ(p.difficulty(static_cast<double>(r), rng),
              static_cast<Difficulty>(r + 5))
        << "R=" << r;
  }
}

TEST(LinearPolicy, FractionalScoresRoundUp) {
  const LinearPolicy p(1);
  common::Rng rng(1);
  EXPECT_EQ(p.difficulty(0.1, rng), 2u);  // ceil(0.1) + 1
  EXPECT_EQ(p.difficulty(3.9, rng), 5u);  // ceil(3.9) + 1
}

TEST(LinearPolicy, ClampsOutOfRangeScores) {
  const LinearPolicy p(1);
  common::Rng rng(1);
  EXPECT_EQ(p.difficulty(-3.0, rng), p.difficulty(0.0, rng));
  EXPECT_EQ(p.difficulty(42.0, rng), p.difficulty(10.0, rng));
}

TEST(LinearPolicy, SlopeScalesMapping) {
  const LinearPolicy p(0, 2.0);
  common::Rng rng(1);
  EXPECT_EQ(p.difficulty(3.0, rng), 6u);
  EXPECT_EQ(p.difficulty(10.0, rng), 20u);
}

TEST(LinearPolicy, RejectsNonPositiveSlope) {
  EXPECT_THROW(LinearPolicy(1, 0.0), std::invalid_argument);
  EXPECT_THROW(LinearPolicy(1, -1.0), std::invalid_argument);
}

TEST(LinearPolicy, IsMonotone) {
  const LinearPolicy p = LinearPolicy::policy2();
  common::Rng rng(1);
  Difficulty prev = 0;
  for (double s = 0.0; s <= 10.0; s += 0.25) {
    const Difficulty d = p.difficulty(s, rng);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(LinearPolicy, DescribeMentionsParameters) {
  EXPECT_NE(LinearPolicy(5).describe().find("5"), std::string::npos);
  EXPECT_EQ(LinearPolicy(1).name(), "linear");
}

// ---------------------------------------------------------------------------
// Policy 3 — error-range mapping (§III.B).
// ---------------------------------------------------------------------------

TEST(ErrorRangePolicy, RejectsNegativeEpsilon) {
  EXPECT_THROW(ErrorRangePolicy(-0.1), std::invalid_argument);
  EXPECT_THROW(ErrorRangePolicy(std::nan("")), std::invalid_argument);
}

TEST(ErrorRangePolicy, ZeroEpsilonIsDeterministicCeilPlusOne) {
  // With ε = 0 the interval collapses to dᵢ = ⌈sᵢ + 1⌉ exactly.
  const ErrorRangePolicy p(0.0);
  common::Rng rng(2);
  for (int r = 0; r <= 10; ++r) {
    EXPECT_EQ(p.difficulty(static_cast<double>(r), rng),
              static_cast<Difficulty>(r + 1))
        << "R=" << r;
  }
}

TEST(ErrorRangePolicy, IntervalMatchesPaperFormula) {
  const ErrorRangePolicy p(1.5);
  // s = 4: d = ceil(4 + 1) = 5; interval [ceil(3.5), ceil(6.5)] = [4, 7].
  const auto [lo, hi] = p.interval(4.0);
  EXPECT_EQ(lo, 4u);
  EXPECT_EQ(hi, 7u);
}

TEST(ErrorRangePolicy, DrawsStayInsideInterval) {
  const ErrorRangePolicy p(2.0);
  common::Rng rng(3);
  for (int r = 0; r <= 10; ++r) {
    const auto [lo, hi] = p.interval(static_cast<double>(r));
    for (int trial = 0; trial < 200; ++trial) {
      const Difficulty d = p.difficulty(static_cast<double>(r), rng);
      EXPECT_GE(d, lo);
      EXPECT_LE(d, hi);
    }
  }
}

TEST(ErrorRangePolicy, CoversWholeInterval) {
  const ErrorRangePolicy p(2.0);
  common::Rng rng(4);
  const auto [lo, hi] = p.interval(5.0);
  std::map<Difficulty, int> seen;
  for (int trial = 0; trial < 2000; ++trial) {
    ++seen[p.difficulty(5.0, rng)];
  }
  for (Difficulty d = lo; d <= hi; ++d) {
    EXPECT_GT(seen[d], 0) << "difficulty " << d << " never drawn";
  }
  EXPECT_EQ(seen.size(), hi - lo + 1);
}

TEST(ErrorRangePolicy, IntervalClampedAtLowEnd) {
  // s = 0, ε = 5: raw interval would start below the minimum difficulty.
  const ErrorRangePolicy p(5.0);
  const auto [lo, hi] = p.interval(0.0);
  EXPECT_EQ(lo, kMinSupportedDifficulty);
  EXPECT_EQ(hi, 6u);  // ceil(1 + 5)
}

TEST(ErrorRangePolicy, MeanDifficultyBetweenPolicies1And2) {
  // The paper's Figure 2 shows Policy 3's latency growth between the two
  // linear policies; difficulty-wise, its mean at high scores must exceed
  // Policy 1's and stay below Policy 2's.
  const ErrorRangePolicy p3(1.5);
  const LinearPolicy p1 = LinearPolicy::policy1();
  const LinearPolicy p2 = LinearPolicy::policy2();
  common::Rng rng(5);
  for (int r = 6; r <= 10; ++r) {
    double mean3 = 0.0;
    const int trials = 500;
    for (int t = 0; t < trials; ++t) {
      mean3 += static_cast<double>(p3.difficulty(r, rng)) / trials;
    }
    const auto d1 = static_cast<double>(p1.difficulty(r, rng));
    const auto d2 = static_cast<double>(p2.difficulty(r, rng));
    EXPECT_GE(mean3, d1 - 0.3) << "R=" << r;
    EXPECT_LT(mean3, d2) << "R=" << r;
  }
}

TEST(Describe, AllPoliciesProduceNonEmptyDescriptions) {
  // The paper's five policy specs, as PolicySweep names them.
  EXPECT_FALSE(LinearPolicy::policy1().describe().empty());
  EXPECT_FALSE(LinearPolicy::policy2().describe().empty());
  EXPECT_FALSE(LinearPolicy(3, 0.5).describe().empty());
  EXPECT_FALSE(ErrorRangePolicy(1.5).describe().empty());
  EXPECT_FALSE(ErrorRangePolicy(3.0).describe().empty());
}

}  // namespace
}  // namespace powai::policy
