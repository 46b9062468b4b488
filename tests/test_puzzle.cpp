// Tests for puzzle structure, canonical hashing input, and wire encoding.

#include "pow/puzzle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/clock.hpp"
#include "crypto/sha256.hpp"
#include "pow/generator.hpp"

namespace powai::pow {
namespace {

Puzzle sample_puzzle(unsigned difficulty = 4) {
  common::ManualClock clock(common::TimePoint{} + std::chrono::seconds(100));
  PuzzleGenerator gen(clock, common::bytes_of("secret"));
  return gen.issue_for("192.168.1.10", 1, difficulty);
}

TEST(Puzzle, PrefixContainsAllRequestData) {
  const Puzzle p = sample_puzzle();
  const std::string prefix = common::string_of(p.prefix_bytes());
  EXPECT_NE(prefix.find("POWAI1|"), std::string::npos);
  EXPECT_NE(prefix.find(common::to_hex(p.seed)), std::string::npos);
  EXPECT_NE(prefix.find(std::to_string(p.issued_at_ms)), std::string::npos);
  EXPECT_NE(prefix.find("|4|"), std::string::npos);
  EXPECT_NE(prefix.find("192.168.1.10"), std::string::npos);
}

TEST(Puzzle, DistinctFieldsGiveDistinctPrefixes) {
  Puzzle a = sample_puzzle();
  Puzzle b = a;
  b.difficulty += 1;
  EXPECT_NE(a.prefix_bytes(), b.prefix_bytes());
  Puzzle c = a;
  c.client_binding = "10.0.0.1";
  EXPECT_NE(a.prefix_bytes(), c.prefix_bytes());
  Puzzle d = a;
  d.issued_at_ms += 1;
  EXPECT_NE(a.prefix_bytes(), d.prefix_bytes());
}

TEST(Puzzle, MacInputIncludesPuzzleId) {
  Puzzle a = sample_puzzle();
  Puzzle b = a;
  b.puzzle_id += 1;
  EXPECT_EQ(a.prefix_bytes(), b.prefix_bytes());  // id not in solve prefix
  EXPECT_NE(a.mac_input(), b.mac_input());        // but covered by the MAC
}

TEST(Puzzle, SerializeRoundTrips) {
  const Puzzle p = sample_puzzle(7);
  const auto restored = Puzzle::deserialize(p.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, p);
}

TEST(Puzzle, DeserializeRejectsTruncation) {
  const common::Bytes wire = sample_puzzle().serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        Puzzle::deserialize(common::BytesView(wire.data(), len)).has_value())
        << "len=" << len;
  }
}

TEST(Puzzle, DeserializeRejectsTrailingGarbage) {
  common::Bytes wire = sample_puzzle().serialize();
  wire.push_back(0x00);
  EXPECT_FALSE(Puzzle::deserialize(wire).has_value());
}

TEST(Puzzle, DeserializeRejectsOversizedFields) {
  // Seed length field claiming 1 MiB must be rejected before allocation.
  common::Bytes wire;
  common::append_u64be(wire, 1);           // puzzle_id
  common::append_u32be(wire, 1 << 20);     // absurd seed length
  EXPECT_FALSE(Puzzle::deserialize(wire).has_value());
}

TEST(Solution, SerializeRoundTrips) {
  const Solution s{42, 0xdeadbeefcafef00dULL};
  const auto restored = Solution::deserialize(s.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, s);
}

TEST(Solution, DeserializeRejectsBadSizes) {
  const Solution s{1, 2};
  common::Bytes wire = s.serialize();
  wire.pop_back();
  EXPECT_FALSE(Solution::deserialize(wire).has_value());
  wire = s.serialize();
  wire.push_back(0);
  EXPECT_FALSE(Solution::deserialize(wire).has_value());
}

TEST(SolutionDigest, DependsOnNonce) {
  const Puzzle p = sample_puzzle();
  EXPECT_NE(solution_digest(p, 0), solution_digest(p, 1));
}

TEST(SolutionDigest, DeterministicPerPuzzle) {
  const Puzzle p = sample_puzzle();
  EXPECT_EQ(solution_digest(p, 7), solution_digest(p, 7));
}

TEST(IsValidSolution, DifficultyZeroAcceptsAnything) {
  Puzzle p = sample_puzzle(0);
  EXPECT_TRUE(is_valid_solution(p, 0));
  EXPECT_TRUE(is_valid_solution(p, 12345));
}

TEST(IsValidSolution, MatchesManualDigestCheck) {
  const Puzzle p = sample_puzzle(2);
  for (std::uint64_t nonce = 0; nonce < 64; ++nonce) {
    const bool valid = is_valid_solution(p, nonce);
    const bool manual =
        crypto::leading_zero_bits(solution_digest(p, nonce)) >= 2;
    EXPECT_EQ(valid, manual) << "nonce=" << nonce;
  }
}

TEST(PuzzleContext, DigestMatchesHashOfPrefixPlusNonce) {
  // The midstate fast path must be bit-identical to the definitional
  // digest: SHA-256(prefix_bytes() || u64be(nonce)).
  const Puzzle p = sample_puzzle(3);
  const PuzzleContext context(p);
  EXPECT_EQ(context.prefix(), p.prefix_bytes());
  EXPECT_EQ(context.puzzle_id(), p.puzzle_id);
  EXPECT_EQ(context.difficulty(), p.difficulty);
  for (std::uint64_t nonce : {std::uint64_t{0}, std::uint64_t{1},
                              std::uint64_t{255}, std::uint64_t{1} << 33,
                              ~std::uint64_t{0}}) {
    common::Bytes message = p.prefix_bytes();
    common::append_u64be(message, nonce);
    EXPECT_EQ(context.digest_for(nonce), crypto::Sha256::hash(message));
    EXPECT_EQ(context.digest_for(nonce), solution_digest(p, nonce));
    EXPECT_EQ(context.check(nonce), is_valid_solution(p, nonce));
  }
}

TEST(PuzzleContext, SharedAcrossCallsGivesStableAnswers) {
  // One context, many probes — the solver's usage pattern. Probing must
  // not mutate the context.
  const Puzzle p = sample_puzzle(1);
  const PuzzleContext context(p);
  std::vector<crypto::Digest> first;
  for (std::uint64_t nonce = 0; nonce < 32; ++nonce) {
    first.push_back(context.digest_for(nonce));
  }
  for (std::uint64_t nonce = 0; nonce < 32; ++nonce) {
    EXPECT_EQ(context.digest_for(nonce), first[nonce]);
  }
}

}  // namespace
}  // namespace powai::pow
