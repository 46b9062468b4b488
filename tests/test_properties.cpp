// Parameterized property sweeps across the system's core invariants:
// solve/verify round trips per difficulty, tamper rejection per field,
// policy monotonicity per policy, protocol round trips per payload shape,
// and multi-puzzle work conservation per fanout.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "framework/protocol.hpp"
#include "policy/error_range_policy.hpp"
#include "policy/linear_policy.hpp"
#include "pow/generator.hpp"
#include "pow/multi_puzzle.hpp"
#include "pow/solver.hpp"
#include "pow/verifier.hpp"

namespace powai {
namespace {

// ---------------------------------------------------------------------------
// Property: for every difficulty, solve → verify round-trips, and the
// solution meets exactly the difficulty semantics.
// ---------------------------------------------------------------------------

class DifficultySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifficultySweep, SolveVerifyRoundTrip) {
  const unsigned d = GetParam();
  common::ManualClock clock;
  pow::PuzzleGenerator generator(clock, common::bytes_of("sweep-secret"));
  pow::Verifier verifier(clock, common::bytes_of("sweep-secret"));
  const pow::Puzzle puzzle = generator.issue_for("192.0.2.1", 1, d);
  const pow::SolveResult solved = pow::Solver{}.solve(puzzle);
  ASSERT_TRUE(solved.found);
  EXPECT_GE(crypto::leading_zero_bits(
                pow::solution_digest(puzzle, solved.solution.nonce)),
            d);
  EXPECT_TRUE(verifier.verify(puzzle, solved.solution, "192.0.2.1").ok());
}

TEST_P(DifficultySweep, EarlierNoncesDoNotSolve) {
  // The solver returns the *first* solving nonce: every nonce before it
  // must fail the difficulty check (definition of the search).
  const unsigned d = GetParam();
  if (d > 10) GTEST_SKIP() << "bounded exhaustive check only for small d";
  common::ManualClock clock;
  pow::PuzzleGenerator generator(clock, common::bytes_of("sweep-secret-2"));
  const pow::Puzzle puzzle = generator.issue_for("192.0.2.1", 1, d);
  const pow::SolveResult solved = pow::Solver{}.solve(puzzle);
  ASSERT_TRUE(solved.found);
  for (std::uint64_t n = 0; n < solved.solution.nonce; ++n) {
    ASSERT_FALSE(pow::is_valid_solution(puzzle, n)) << "nonce " << n;
  }
}

TEST_P(DifficultySweep, AttemptCountEqualsNoncePlusOne) {
  // start_nonce=0, stride 1: attempts == winning nonce + 1.
  const unsigned d = GetParam();
  common::ManualClock clock;
  pow::PuzzleGenerator generator(clock, common::bytes_of("sweep-secret-3"));
  const pow::Puzzle puzzle = generator.issue_for("192.0.2.1", 1, d);
  const pow::SolveResult solved = pow::Solver{}.solve(puzzle);
  ASSERT_TRUE(solved.found);
  EXPECT_EQ(solved.attempts, solved.solution.nonce + 1);
}

INSTANTIATE_TEST_SUITE_P(AllDifficulties, DifficultySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 8u, 10u,
                                           12u, 14u),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Property: flipping any single serialized-puzzle field breaks
// verification (the MAC covers everything).
// ---------------------------------------------------------------------------

enum class Tamper { kSeed, kTimestamp, kDifficulty, kBinding, kId, kAuth };

class TamperSweep : public ::testing::TestWithParam<Tamper> {};

TEST_P(TamperSweep, AnyFieldChangeIsRejected) {
  common::ManualClock clock;
  pow::PuzzleGenerator generator(clock, common::bytes_of("tamper-secret"));
  pow::Verifier verifier(clock, common::bytes_of("tamper-secret"));
  const pow::Puzzle original = generator.issue_for("192.0.2.1", 1, 6);
  pow::Puzzle tampered = original;
  switch (GetParam()) {
    case Tamper::kSeed: tampered.seed[0] ^= 1; break;
    case Tamper::kTimestamp: tampered.issued_at_ms += 1; break;
    case Tamper::kDifficulty: tampered.difficulty -= 1; break;
    case Tamper::kBinding: tampered.client_binding = "192.0.2.2"; break;
    case Tamper::kId: tampered.puzzle_id += 1; break;
    case Tamper::kAuth: tampered.auth[0] ^= 1; break;
  }
  const pow::SolveResult solved = pow::Solver{}.solve(tampered);
  ASSERT_TRUE(solved.found);
  EXPECT_FALSE(verifier.verify(tampered, solved.solution).ok());
  // And the untampered puzzle still works (no state was corrupted).
  const pow::SolveResult honest = pow::Solver{}.solve(original);
  EXPECT_TRUE(verifier.verify(original, honest.solution).ok());
}

INSTANTIATE_TEST_SUITE_P(AllFields, TamperSweep,
                         ::testing::Values(Tamper::kSeed, Tamper::kTimestamp,
                                           Tamper::kDifficulty,
                                           Tamper::kBinding, Tamper::kId,
                                           Tamper::kAuth),
                         [](const auto& info) {
                           switch (info.param) {
                             case Tamper::kSeed: return "seed";
                             case Tamper::kTimestamp: return "timestamp";
                             case Tamper::kDifficulty: return "difficulty";
                             case Tamper::kBinding: return "binding";
                             case Tamper::kId: return "id";
                             case Tamper::kAuth: return "auth";
                           }
                           return "unknown";
                         });

// ---------------------------------------------------------------------------
// Property: every shipped policy is monotone (in expectation for the
// randomized one) and stays inside the difficulty band across the whole
// score range.
// ---------------------------------------------------------------------------

/// The swept policies, by the spec string that names each case.
policy::PolicyPtr make_swept_policy(std::string_view spec) {
  using namespace policy;
  if (spec == "policy=policy1") return std::make_unique<LinearPolicy>(1);
  if (spec == "policy=policy2") return std::make_unique<LinearPolicy>(5);
  if (spec == "policy=linear offset=3 slope=0.5") {
    return std::make_unique<LinearPolicy>(3, 0.5);
  }
  if (spec == "policy=error_range epsilon=1.5") {
    return std::make_unique<ErrorRangePolicy>(1.5);
  }
  if (spec == "policy=error_range epsilon=3.0") {
    return std::make_unique<ErrorRangePolicy>(3.0);
  }
  throw std::invalid_argument("no swept policy named " + std::string(spec));
}

class PolicySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicySweep, OutputAlwaysInSupportedBand) {
  const auto policy = make_swept_policy(GetParam());
  common::Rng rng(1);
  for (double s = -2.0; s <= 12.0; s += 0.25) {
    const policy::Difficulty d = policy->difficulty(s, rng);
    ASSERT_GE(d, policy::kMinSupportedDifficulty);
    ASSERT_LE(d, policy::kMaxSupportedDifficulty);
  }
}

TEST_P(PolicySweep, MeanDifficultyIsNonDecreasingInScore) {
  const auto policy = make_swept_policy(GetParam());
  common::Rng rng(2);
  double prev_mean = 0.0;
  for (int r = 0; r <= 10; ++r) {
    double mean = 0.0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
      mean += static_cast<double>(
                  policy->difficulty(static_cast<double>(r), rng)) /
              trials;
    }
    ASSERT_GE(mean, prev_mean - 0.25) << "score " << r;  // sampling slack
    prev_mean = mean;
  }
}

TEST_P(PolicySweep, DeterministicPoliciesIgnoreRngState) {
  const std::string spec = GetParam();
  if (spec.find("error_range") != std::string::npos) {
    GTEST_SKIP() << "policy 3 is randomized by design";
  }
  const auto policy = make_swept_policy(spec);
  common::Rng rng_a(3);
  common::Rng rng_b(4444);
  for (int r = 0; r <= 10; ++r) {
    EXPECT_EQ(policy->difficulty(r, rng_a), policy->difficulty(r, rng_b));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values("policy=policy1", "policy=policy2",
                      "policy=linear offset=3 slope=0.5",
                      "policy=error_range epsilon=1.5",
                      "policy=error_range epsilon=3.0"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Property: protocol messages round-trip for randomized payloads.
// ---------------------------------------------------------------------------

class ProtocolSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolSweep, RandomizedRequestRoundTrips) {
  common::Rng rng(GetParam());
  framework::Request r;
  r.client_ip = std::to_string(rng.uniform_u64(0, 255)) + "." +
                std::to_string(rng.uniform_u64(0, 255)) + ".0.1";
  r.path.assign(rng.uniform_u64(0, 64), 'p');
  r.request_id = rng();
  for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
    r.features[i] = rng.normal(0.0, 1e6);
  }
  const auto decoded = framework::decode(r.serialize());
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<framework::Request>(*decoded);
  EXPECT_EQ(back.client_ip, r.client_ip);
  EXPECT_EQ(back.path, r.path);
  EXPECT_EQ(back.features, r.features);
  EXPECT_EQ(back.request_id, r.request_id);
}

TEST_P(ProtocolSweep, RandomizedSubmissionRoundTrips) {
  common::Rng rng(GetParam() ^ 0xfeedULL);
  common::ManualClock clock;
  pow::PuzzleGenerator gen(clock, common::bytes_of("proto-sweep"));
  framework::Submission s;
  s.request_id = rng();
  s.puzzle = gen.issue_for("10.1.2.3", 1,
                           static_cast<unsigned>(rng.uniform_u64(1, 30)));
  s.solution = {s.puzzle.puzzle_id, rng()};
  const auto decoded = framework::decode(s.serialize());
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<framework::Submission>(*decoded);
  EXPECT_EQ(back.puzzle, s.puzzle);
  EXPECT_EQ(back.solution, s.solution);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Property: multi-puzzle fanouts conserve expected work and verify.
// ---------------------------------------------------------------------------

class FanoutSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FanoutSweep, SolvesVerifiesAndConservesWork) {
  const unsigned fanout = GetParam();
  common::ManualClock clock;
  pow::PuzzleGenerator gen(clock, common::bytes_of("fanout-sweep"));
  const unsigned d = 10;
  const pow::MultiPuzzle m = pow::split_puzzle(gen.issue_for("10.0.0.1", 1, d), fanout);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(fanout) * std::pow(2.0, m.sub_difficulty),
      std::pow(2.0, d));
  const pow::MultiSolveResult r = pow::solve_multi(m);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(pow::is_valid_multi_solution(m, r.solution));
  // Cross-fanout isolation: a solution for fanout k never validates
  // against a different split of the same base puzzle.
  if (fanout > 1) {
    const pow::MultiPuzzle other = pow::split_puzzle(m.base, fanout / 2);
    EXPECT_FALSE(pow::is_valid_multi_solution(other, r.solution));
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, FanoutSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace powai
