// Tests for the verifier: authenticity, binding, expiry, work check,
// replay protection, and the attack scenarios each defends against.

#include "pow/verifier.hpp"

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"

namespace powai::pow {
namespace {

using namespace std::chrono_literals;
using common::ErrorCode;

struct Rig {
  common::ManualClock clock;
  PuzzleGenerator generator;
  std::uint64_t next_key = 1;  ///< request key of the next solved() puzzle
  Verifier verifier;
  Solver solver;

  explicit Rig(VerifierConfig config = {})
      : generator(clock, common::bytes_of("rig-secret")),
        verifier(clock, common::bytes_of("rig-secret"), config) {}

  std::pair<Puzzle, Solution> solved(unsigned difficulty,
                                     const std::string& ip = "1.2.3.4") {
    const Puzzle p = generator.issue_for(ip, next_key++, difficulty);
    const SolveResult r = solver.solve(p);
    EXPECT_TRUE(r.found);
    return {p, r.solution};
  }
};

TEST(Verifier, AcceptsValidSolution) {
  Rig rig;
  const auto [p, s] = rig.solved(6);
  EXPECT_TRUE(rig.verifier.verify(p, s).ok());
}

TEST(Verifier, AcceptsWithMatchingObservedIp) {
  Rig rig;
  const auto [p, s] = rig.solved(4, "10.0.0.9");
  EXPECT_TRUE(rig.verifier.verify(p, s, "10.0.0.9").ok());
}

TEST(Verifier, RejectsWrongObservedIp) {
  // Attack: solution harvested by one bot and replayed from another IP.
  Rig rig;
  const auto [p, s] = rig.solved(4, "10.0.0.9");
  const common::Status st = rig.verifier.verify(p, s, "10.0.0.250");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kInvalidArgument);
}

TEST(Verifier, RejectsWrongNonce) {
  Rig rig;
  auto [p, s] = rig.solved(8);
  s.nonce ^= 1;
  const common::Status st = rig.verifier.verify(p, s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kBadSolution);
}

TEST(Verifier, RejectsMismatchedPuzzleId) {
  Rig rig;
  const auto [p, s] = rig.solved(4);
  Solution other = s;
  other.puzzle_id += 1;
  const common::Status st = rig.verifier.verify(p, other);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kInvalidArgument);
}

TEST(Verifier, RejectsTamperedDifficulty) {
  // Attack: client solves at difficulty 1 then claims the puzzle asked
  // for difficulty 1 when it was issued harder — the MAC catches it.
  Rig rig;
  const Puzzle hard = rig.generator.issue_for("1.2.3.4", 1, 12);
  Puzzle softened = hard;
  softened.difficulty = 1;
  const SolveResult r = rig.solver.solve(softened);
  ASSERT_TRUE(r.found);
  const common::Status st = rig.verifier.verify(softened, r.solution);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kInvalidArgument);
}

TEST(Verifier, RejectsForgedPuzzle) {
  // Attack: client fabricates its own easy puzzle with a made-up MAC.
  Rig rig;
  Puzzle forged;
  forged.puzzle_id = 999;
  forged.seed = common::bytes_of("self-issued-seed");
  forged.issued_at_ms = common::to_millis(rig.clock.now());
  forged.difficulty = 1;
  forged.client_binding = "1.2.3.4";
  const SolveResult r = rig.solver.solve(forged);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(rig.verifier.verify(forged, r.solution).ok());
}

TEST(Verifier, RejectsCrossServerPuzzle) {
  // Puzzle issued by a generator with a different master secret.
  common::ManualClock clock;
  PuzzleGenerator foreign(clock, common::bytes_of("other-secret"));
  Rig rig;
  const Puzzle p = foreign.issue_for("1.2.3.4", 1, 2);
  const SolveResult r = rig.solver.solve(p);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(rig.verifier.verify(p, r.solution).ok());
}

TEST(Verifier, RejectsExpiredPuzzle) {
  VerifierConfig cfg;
  cfg.ttl = 10s;
  Rig rig(cfg);
  const auto [p, s] = rig.solved(4);
  rig.clock.advance(11s);
  const common::Status st = rig.verifier.verify(p, s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kExpired);
}

TEST(Verifier, AcceptsJustInsideTtl) {
  VerifierConfig cfg;
  cfg.ttl = 10s;
  Rig rig(cfg);
  const auto [p, s] = rig.solved(4);
  rig.clock.advance(10s);
  EXPECT_TRUE(rig.verifier.verify(p, s).ok());
}

TEST(Verifier, RejectsFutureTimestampBeyondSkew) {
  // Attack: client rewrites issued_at into the future to extend the ttl —
  // MAC covers the timestamp, so fabricate via the generator clock
  // instead: verifier clock lags the issuing clock.
  common::ManualClock issue_clock(common::TimePoint{} + 100s);
  common::ManualClock verify_clock;  // at t=0
  PuzzleGenerator gen(issue_clock, common::bytes_of("skew-secret"));
  Verifier verifier(verify_clock, common::bytes_of("skew-secret"));
  const Puzzle p = gen.issue_for("1.2.3.4", 1, 2);
  const SolveResult r = Solver{}.solve(p);
  ASSERT_TRUE(r.found);
  const common::Status st = verifier.verify(p, r.solution);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kExpired);
}

TEST(Verifier, AcceptsSmallFutureSkew) {
  common::ManualClock issue_clock(common::TimePoint{} + 2s);
  common::ManualClock verify_clock;  // 2 s behind, within default 5 s skew
  PuzzleGenerator gen(issue_clock, common::bytes_of("skew-secret"));
  Verifier verifier(verify_clock, common::bytes_of("skew-secret"));
  const Puzzle p = gen.issue_for("1.2.3.4", 1, 2);
  const SolveResult r = Solver{}.solve(p);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(verifier.verify(p, r.solution).ok());
}

TEST(Verifier, RejectsReplayedSolution) {
  Rig rig;
  const auto [p, s] = rig.solved(5);
  EXPECT_TRUE(rig.verifier.verify(p, s).ok());
  const common::Status st = rig.verifier.verify(p, s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kReplay);
  EXPECT_EQ(rig.verifier.replay_entries(), 1u);
}

TEST(Verifier, ReplayCacheDistinguishesPuzzles) {
  Rig rig;
  const auto [p1, s1] = rig.solved(4);
  const auto [p2, s2] = rig.solved(4);
  EXPECT_TRUE(rig.verifier.verify(p1, s1).ok());
  EXPECT_TRUE(rig.verifier.verify(p2, s2).ok());
  EXPECT_EQ(rig.verifier.replay_entries(), 2u);
}

TEST(Verifier, ReplayCacheEvictsFifoAtCapacity) {
  VerifierConfig cfg;
  cfg.replay_capacity = 2;
  cfg.replay_shards = 1;  // single shard = classic global FIFO semantics
  Rig rig(cfg);
  const auto [p1, s1] = rig.solved(2);
  const auto [p2, s2] = rig.solved(2);
  const auto [p3, s3] = rig.solved(2);
  EXPECT_TRUE(rig.verifier.verify(p1, s1).ok());
  EXPECT_TRUE(rig.verifier.verify(p2, s2).ok());
  EXPECT_TRUE(rig.verifier.verify(p3, s3).ok());  // evicts p1
  EXPECT_EQ(rig.verifier.replay_entries(), 2u);
  // p2 is still remembered, so its replay is rejected; p1 was evicted, so
  // (regrettably but by design at this capacity) its replay is accepted.
  EXPECT_FALSE(rig.verifier.verify(p2, s2).ok());
  EXPECT_TRUE(rig.verifier.verify(p1, s1).ok());
}

TEST(Verifier, FailedVerificationDoesNotConsumePuzzle) {
  Rig rig;
  auto [p, s] = rig.solved(6);
  Solution bad = s;
  bad.nonce ^= 1;
  EXPECT_FALSE(rig.verifier.verify(p, bad).ok());
  // The genuine solution still works afterwards.
  EXPECT_TRUE(rig.verifier.verify(p, s).ok());
}

TEST(Verifier, RejectsBadConfig) {
  common::ManualClock clock;
  VerifierConfig bad;
  bad.replay_capacity = 0;
  EXPECT_THROW(Verifier(clock, common::bytes_of("x"), bad),
               std::invalid_argument);
  bad = {};
  bad.ttl = 0s;
  EXPECT_THROW(Verifier(clock, common::bytes_of("x"), bad),
               std::invalid_argument);
}

TEST(Verifier, SerializedPuzzleSurvivesVerification) {
  // End-to-end wire trip: serialize puzzle to the "client", solve there,
  // send solution back, verify.
  Rig rig;
  const Puzzle original = rig.generator.issue_for("4.5.6.7", 1, 6);
  const auto client_copy = Puzzle::deserialize(original.serialize());
  ASSERT_TRUE(client_copy.has_value());
  const SolveResult r = rig.solver.solve(*client_copy);
  ASSERT_TRUE(r.found);
  const auto wire_solution = Solution::deserialize(r.solution.serialize());
  ASSERT_TRUE(wire_solution.has_value());
  EXPECT_TRUE(rig.verifier.verify(original, *wire_solution, "4.5.6.7").ok());
}

}  // namespace
}  // namespace powai::pow
