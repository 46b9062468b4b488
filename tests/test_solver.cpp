// Tests for the nonce-search solver: correctness, bounds, cancellation,
// multithreading, and statistical behaviour of the attempt count.

#include "pow/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <thread>
#include <utility>

#include "common/clock.hpp"
#include "pow/difficulty.hpp"
#include "pow/generator.hpp"

namespace powai::pow {
namespace {

Puzzle make_puzzle(unsigned difficulty, const std::string& ip = "1.2.3.4") {
  static common::ManualClock clock;
  static PuzzleGenerator gen(clock, common::bytes_of("solver-test-secret"));
  static std::uint64_t key = 0;
  return gen.issue_for(ip, ++key, difficulty);
}

TEST(Solver, SolvesEasyPuzzle) {
  const Puzzle p = make_puzzle(1);
  const SolveResult r = Solver{}.solve(p);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(is_valid_solution(p, r.solution.nonce));
  EXPECT_EQ(r.solution.puzzle_id, p.puzzle_id);
  EXPECT_GE(r.attempts, 1u);
}

TEST(Solver, SolvesModeratePuzzles) {
  for (unsigned d : {4u, 8u, 12u}) {
    const Puzzle p = make_puzzle(d);
    const SolveResult r = Solver{}.solve(p);
    ASSERT_TRUE(r.found) << "d=" << d;
    EXPECT_TRUE(is_valid_solution(p, r.solution.nonce));
  }
}

TEST(Solver, RespectsMaxAttempts) {
  const Puzzle p = make_puzzle(40);  // effectively unsolvable in budget
  SolveOptions opts;
  opts.max_attempts = 1000;
  const SolveResult r = Solver{}.solve(p, opts);
  EXPECT_FALSE(r.found);
  EXPECT_LE(r.attempts, 1000u);
  EXPECT_GE(r.attempts, 1000u);  // exhausted exactly
}

TEST(Solver, StartNonceMakesSearchDeterministic) {
  const Puzzle p = make_puzzle(6);
  const SolveResult a = Solver{}.solve(p);
  const SolveResult b = Solver{}.solve(p);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.solution.nonce, b.solution.nonce);
  EXPECT_EQ(a.attempts, b.attempts);
}

TEST(Solver, ResumeFromLaterNonceSkipsEarlierSolution) {
  const Puzzle p = make_puzzle(4);
  const SolveResult first = Solver{}.solve(p);
  ASSERT_TRUE(first.found);
  SolveOptions opts;
  opts.start_nonce = first.solution.nonce + 1;
  const SolveResult second = Solver{}.solve(p, opts);
  ASSERT_TRUE(second.found);
  EXPECT_GT(second.solution.nonce, first.solution.nonce);
  EXPECT_TRUE(is_valid_solution(p, second.solution.nonce));
}

TEST(Solver, MultithreadedFindsValidSolution) {
  for (unsigned threads : {2u, 4u}) {
    const Puzzle p = make_puzzle(10);
    SolveOptions opts;
    opts.threads = threads;
    const SolveResult r = Solver{}.solve(p, opts);
    ASSERT_TRUE(r.found) << "threads=" << threads;
    EXPECT_TRUE(is_valid_solution(p, r.solution.nonce));
  }
}

TEST(Solver, MultithreadedExhaustsExactBudget) {
  // The per-worker split must sum to exactly max_attempts — no ceil
  // overshoot — including totals that don't divide evenly and totals
  // smaller than the thread count (surplus workers simply don't run).
  const Puzzle p = make_puzzle(40);
  const std::pair<unsigned, std::uint64_t> cases[] = {
      {4u, 10'000}, {4u, 10'001}, {4u, 10'003}, {3u, 1}, {8u, 5}};
  for (const auto& [threads, budget] : cases) {
    SolveOptions opts;
    opts.threads = threads;
    opts.max_attempts = budget;
    const SolveResult r = Solver{}.solve(p, opts);
    EXPECT_FALSE(r.found) << "threads=" << threads << " budget=" << budget;
    EXPECT_EQ(r.attempts, budget)
        << "threads=" << threads << " budget=" << budget;
  }
}

TEST(Solver, ZeroThreadsThrows) {
  const Puzzle p = make_puzzle(1);
  SolveOptions opts;
  opts.threads = 0;
  EXPECT_THROW((void)Solver{}.solve(p, opts), std::invalid_argument);
}

TEST(Solver, CancellationStopsSearch) {
  const Puzzle p = make_puzzle(40);
  std::atomic<bool> cancel{false};
  SolveOptions opts;
  opts.cancel = &cancel;
  std::jthread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.store(true);
  });
  const SolveResult r = Solver{}.solve(p, opts);  // unbounded but cancellable
  EXPECT_FALSE(r.found);
  EXPECT_GT(r.attempts, 0u);
}

TEST(Solver, AttemptCountNearExpectedWork) {
  // Mean attempts over many d=8 puzzles should be near 2^8 = 256 (within
  // 4 sigma: sigma_mean = 256/sqrt(200) ~ 18).
  common::ManualClock clock;
  PuzzleGenerator gen(clock, common::bytes_of("stats-secret"));
  double total = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const Puzzle p =
        gen.issue_for("9.9.9.9", static_cast<std::uint64_t>(i), 8);
    const SolveResult r = Solver{}.solve(p);
    ASSERT_TRUE(r.found);
    total += static_cast<double>(r.attempts);
  }
  const double mean = total / trials;
  EXPECT_GT(mean, 256.0 - 4.0 * 18.0);
  EXPECT_LT(mean, 256.0 + 4.0 * 18.0);
}

TEST(Solver, HigherDifficultyTakesMoreAttemptsOnAverage) {
  common::ManualClock clock;
  PuzzleGenerator gen(clock, common::bytes_of("mono-secret"));
  double mean_low = 0.0;
  double mean_high = 0.0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    const auto key = static_cast<std::uint64_t>(i);
    mean_low += static_cast<double>(
        Solver{}.solve(gen.issue_for("1.1.1.1", 2 * key, 4)).attempts);
    mean_high += static_cast<double>(
        Solver{}.solve(gen.issue_for("1.1.1.1", 2 * key + 1, 9)).attempts);
  }
  EXPECT_GT(mean_high / trials, 4.0 * mean_low / trials);
}

TEST(Difficulty, ExpectedHashesDoublesPerStep) {
  EXPECT_DOUBLE_EQ(expected_hashes(0), 1.0);
  EXPECT_DOUBLE_EQ(expected_hashes(1), 2.0);
  EXPECT_DOUBLE_EQ(expected_hashes(10), 1024.0);
  EXPECT_DOUBLE_EQ(expected_hashes(11) / expected_hashes(10), 2.0);
  EXPECT_THROW((void)expected_hashes(300), std::invalid_argument);
}

TEST(Difficulty, SolveProbabilityBasics) {
  EXPECT_DOUBLE_EQ(solve_probability(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(solve_probability(0, 1), 1.0);  // d=0 always solves
  EXPECT_NEAR(solve_probability(1, 1), 0.5, 1e-12);
  // One expected-work's worth of attempts solves with ~63%.
  EXPECT_NEAR(solve_probability(10, 1024), 1.0 - std::exp(-1.0), 0.01);
}

TEST(Difficulty, SolveProbabilityMonotoneInAttempts) {
  double prev = 0.0;
  for (std::uint64_t n : {1u, 10u, 100u, 1000u, 10000u}) {
    const double p = solve_probability(8, n);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(Difficulty, AttemptsForConfidenceInvertsProbability) {
  const double attempts = attempts_for_confidence(10, 0.99);
  const double p = solve_probability(
      10, static_cast<std::uint64_t>(std::ceil(attempts)));
  EXPECT_NEAR(p, 0.99, 0.002);
  EXPECT_THROW((void)attempts_for_confidence(10, 0.0), std::invalid_argument);
  EXPECT_THROW((void)attempts_for_confidence(10, 1.0), std::invalid_argument);
}

TEST(Difficulty, TimingHelpers) {
  // 1000 hashes/s, d=10 (1024 expected hashes) -> ~1024 ms expected.
  EXPECT_NEAR(expected_solve_ms(10, 1000.0), 1024.0, 1e-9);
  EXPECT_NEAR(median_solve_ms(10, 1000.0), 1024.0 * std::numbers::ln2, 1e-9);
  EXPECT_THROW((void)expected_solve_ms(10, 0.0), std::invalid_argument);
}

TEST(Difficulty, DifficultyForTargetRoundTrips) {
  const double hash_rate = 1e6;
  for (unsigned d : {5u, 10u, 15u, 20u}) {
    const double target = expected_solve_ms(d, hash_rate);
    EXPECT_EQ(difficulty_for_target_ms(target, hash_rate), d);
  }
  EXPECT_EQ(difficulty_for_target_ms(1e-9, hash_rate), 1u);  // clamps low
  EXPECT_THROW((void)difficulty_for_target_ms(0.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace powai::pow
