// Tests for variance-reduced multi-puzzles: splitting, work equivalence,
// verification, and the variance-reduction property itself.

#include "pow/multi_puzzle.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/clock.hpp"
#include "common/stats.hpp"
#include "pow/generator.hpp"

namespace powai::pow {
namespace {

Puzzle make_base(unsigned difficulty) {
  static common::ManualClock clock;
  static PuzzleGenerator gen(clock, common::bytes_of("multi-secret"));
  static std::uint64_t key = 0;
  return gen.issue_for("192.0.2.9", ++key, difficulty);
}

TEST(SplitPuzzle, ComputesSubDifficulty) {
  const MultiPuzzle m = split_puzzle(make_base(10), 4);
  EXPECT_EQ(m.fanout, 4u);
  EXPECT_EQ(m.sub_difficulty, 8u);  // 10 - log2(4)
}

TEST(SplitPuzzle, FanoutOneIsDegenerate) {
  const Puzzle base = make_base(6);
  const MultiPuzzle m = split_puzzle(base, 1);
  EXPECT_EQ(m.sub_difficulty, 6u);
  EXPECT_EQ(m.fanout, 1u);
}

TEST(SplitPuzzle, RejectsBadFanout) {
  const Puzzle base = make_base(10);
  EXPECT_THROW((void)split_puzzle(base, 0), std::invalid_argument);
  EXPECT_THROW((void)split_puzzle(base, 3), std::invalid_argument);
  EXPECT_THROW((void)split_puzzle(base, 6), std::invalid_argument);
  // log2(fanout) must stay below the difficulty.
  EXPECT_THROW((void)split_puzzle(base, 1024), std::invalid_argument);
  EXPECT_NO_THROW((void)split_puzzle(base, 512));
}

TEST(SplitPuzzle, ExpectedWorkIsPreserved) {
  const Puzzle base = make_base(12);
  for (unsigned fanout : {1u, 2u, 4u, 8u}) {
    const MultiPuzzle m = split_puzzle(base, fanout);
    const double expected_work =
        static_cast<double>(fanout) * std::pow(2.0, m.sub_difficulty);
    EXPECT_DOUBLE_EQ(expected_work, std::pow(2.0, base.difficulty));
  }
}

TEST(SubDigest, DiffersAcrossIndices) {
  const MultiPuzzle m = split_puzzle(make_base(8), 4);
  EXPECT_NE(sub_digest(m, 0, 7), sub_digest(m, 1, 7));
  EXPECT_NE(sub_digest(m, 0, 7), sub_digest(m, 0, 8));
}

TEST(SubDigest, DiffersFromPlainDigest) {
  // A nonce solving the plain puzzle must not transfer to subpuzzle 0.
  const Puzzle base = make_base(8);
  const MultiPuzzle m = split_puzzle(base, 2);
  EXPECT_NE(sub_digest(m, 0, 42), solution_digest(base, 42));
}

TEST(SolveMulti, SolvesAndVerifies) {
  for (unsigned fanout : {1u, 2u, 4u, 8u}) {
    const MultiPuzzle m = split_puzzle(make_base(10), fanout);
    const MultiSolveResult r = solve_multi(m);
    ASSERT_TRUE(r.found) << "fanout=" << fanout;
    EXPECT_EQ(r.solution.nonces.size(), fanout);
    EXPECT_TRUE(is_valid_multi_solution(m, r.solution));
  }
}

TEST(SolveMulti, RespectsBudget) {
  const MultiPuzzle m = split_puzzle(make_base(30), 2);  // ~2^29 per sub
  SolveOptions opts;
  opts.max_attempts = 500;
  const MultiSolveResult r = solve_multi(m, opts);
  EXPECT_FALSE(r.found);
  EXPECT_LE(r.attempts, 500u);
}

TEST(SolveMulti, CancellationStops) {
  const MultiPuzzle m = split_puzzle(make_base(30), 2);
  std::atomic<bool> cancel{true};  // pre-cancelled
  SolveOptions opts;
  opts.cancel = &cancel;
  const MultiSolveResult r = solve_multi(m, opts);
  EXPECT_FALSE(r.found);
  EXPECT_LT(r.attempts, 512u);
}

TEST(VerifyMulti, RejectsTampering) {
  const MultiPuzzle m = split_puzzle(make_base(8), 4);
  const MultiSolveResult r = solve_multi(m);
  ASSERT_TRUE(r.found);

  MultiSolution wrong_id = r.solution;
  wrong_id.puzzle_id += 1;
  EXPECT_FALSE(is_valid_multi_solution(m, wrong_id));

  MultiSolution short_list = r.solution;
  short_list.nonces.pop_back();
  EXPECT_FALSE(is_valid_multi_solution(m, short_list));

  MultiSolution bad_nonce = r.solution;
  bad_nonce.nonces[2] ^= 1;
  EXPECT_FALSE(is_valid_multi_solution(m, bad_nonce));

  // Reordering nonces breaks index binding (unless coincidentally valid).
  if (r.solution.nonces[0] != r.solution.nonces[1]) {
    MultiSolution swapped = r.solution;
    std::swap(swapped.nonces[0], swapped.nonces[1]);
    const bool still_valid = is_valid_multi_solution(m, swapped);
    // Overwhelmingly false; tolerate the 2^-d coincidence.
    if (still_valid) {
      EXPECT_TRUE(is_valid_sub_solution(m, 0, swapped.nonces[0]));
    }
  }
}

TEST(VarianceReduction, FanoutTightensSolveTimeSpread) {
  // The design goal: same mean work, ~sqrt(k) smaller relative spread.
  const unsigned d = 10;
  const int trials = 120;
  auto relative_spread = [&](unsigned fanout) {
    common::RunningStats attempts;
    common::ManualClock clock;
    PuzzleGenerator gen(clock, common::bytes_of("variance-secret"));
    for (int t = 0; t < trials; ++t) {
      const MultiPuzzle m = split_puzzle(
          gen.issue_for("192.0.2.1", static_cast<std::uint64_t>(t), d),
          fanout);
      const MultiSolveResult r = solve_multi(m);
      EXPECT_TRUE(r.found);
      attempts.add(static_cast<double>(r.attempts));
    }
    return attempts.stddev() / attempts.mean();
  };

  const double spread1 = relative_spread(1);
  const double spread8 = relative_spread(8);
  // Theory: 1.0 vs 1/sqrt(8) ~ 0.35. Generous sampling margin.
  EXPECT_GT(spread1, 0.6);
  EXPECT_LT(spread8, 0.65 * spread1);
}

TEST(VarianceReduction, MeanWorkUnchangedByFanout) {
  const unsigned d = 9;
  const int trials = 150;
  auto mean_attempts = [&](unsigned fanout) {
    common::RunningStats attempts;
    common::ManualClock clock;
    PuzzleGenerator gen(clock, common::bytes_of("mean-secret"));
    for (int t = 0; t < trials; ++t) {
      const MultiPuzzle m = split_puzzle(
          gen.issue_for("192.0.2.1", static_cast<std::uint64_t>(t), d),
          fanout);
      attempts.add(static_cast<double>(solve_multi(m).attempts));
    }
    return attempts.mean();
  };
  const double m1 = mean_attempts(1);
  const double m4 = mean_attempts(4);
  // Both estimate 2^9 = 512; allow generous sampling noise.
  EXPECT_NEAR(m1, 512.0, 150.0);
  EXPECT_NEAR(m4, 512.0, 80.0);
}

}  // namespace
}  // namespace powai::pow
