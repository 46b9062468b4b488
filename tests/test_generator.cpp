// Tests for the puzzle generator: uniqueness, unpredictability surface,
// authentication, timestamping.

#include "pow/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/clock.hpp"

namespace powai::pow {
namespace {

using namespace std::chrono_literals;

TEST(Generator, RejectsEmptySecret) {
  common::ManualClock clock;
  EXPECT_THROW(PuzzleGenerator(clock, {}), std::invalid_argument);
  EXPECT_THROW((void)PuzzleGenerator::derive_mac_key({}), std::invalid_argument);
}

TEST(Generator, IssuesUniqueIdsAndSeeds) {
  common::ManualClock clock;
  PuzzleGenerator gen(clock, common::bytes_of("secret"));
  std::set<std::uint64_t> ids;
  std::set<std::string> seeds;
  for (std::uint64_t key = 0; key < 200; ++key) {
    const Puzzle p = gen.issue_for("1.2.3.4", key, 3);
    ids.insert(p.puzzle_id);
    seeds.insert(common::to_hex(p.seed));
  }
  EXPECT_EQ(ids.size(), 200u);
  EXPECT_EQ(seeds.size(), 200u);
  EXPECT_EQ(gen.issued_count(), 200u);
}

TEST(Generator, SeedsAre32Bytes) {
  common::ManualClock clock;
  PuzzleGenerator gen(clock, common::bytes_of("secret"));
  EXPECT_EQ(gen.issue_for("1.2.3.4", 1, 1).seed.size(), 32u);
}

TEST(Generator, StampsCurrentTime) {
  common::ManualClock clock(common::TimePoint{} + 12345ms);
  PuzzleGenerator gen(clock, common::bytes_of("secret"));
  EXPECT_EQ(gen.issue_for("1.2.3.4", 1, 1).issued_at_ms, 12345);
  clock.advance(1s);
  EXPECT_EQ(gen.issue_for("1.2.3.4", 2, 1).issued_at_ms, 13345);
}

TEST(Generator, BindsRequestedClientAndDifficulty) {
  common::ManualClock clock;
  PuzzleGenerator gen(clock, common::bytes_of("secret"));
  const Puzzle p = gen.issue_for("10.0.0.7", 1, 9);
  EXPECT_EQ(p.client_binding, "10.0.0.7");
  EXPECT_EQ(p.difficulty, 9u);
}

TEST(Generator, AuthTagVerifiesUnderDerivedKey) {
  common::ManualClock clock;
  const common::Bytes secret = common::bytes_of("secret");
  PuzzleGenerator gen(clock, secret);
  const Puzzle p = gen.issue_for("1.2.3.4", 1, 5);
  const crypto::HmacKey mac_key = PuzzleGenerator::derive_mac_key(secret);
  EXPECT_EQ(PuzzleGenerator::compute_auth(mac_key, p), p.auth);
}

TEST(Generator, AuthTagChangesWithAnyField) {
  common::ManualClock clock;
  const common::Bytes secret = common::bytes_of("secret");
  PuzzleGenerator gen(clock, secret);
  const crypto::HmacKey mac_key = PuzzleGenerator::derive_mac_key(secret);
  const Puzzle p = gen.issue_for("1.2.3.4", 1, 5);

  Puzzle tampered = p;
  tampered.difficulty = 1;  // client trying to lower its work
  EXPECT_NE(PuzzleGenerator::compute_auth(mac_key, tampered), p.auth);

  tampered = p;
  tampered.client_binding = "6.6.6.6";
  EXPECT_NE(PuzzleGenerator::compute_auth(mac_key, tampered), p.auth);

  tampered = p;
  tampered.issued_at_ms += 60'000;  // extending its own ttl
  EXPECT_NE(PuzzleGenerator::compute_auth(mac_key, tampered), p.auth);

  tampered = p;
  tampered.puzzle_id += 1;  // evading the replay cache
  EXPECT_NE(PuzzleGenerator::compute_auth(mac_key, tampered), p.auth);
}

TEST(Generator, DistinctSecretsProduceDistinctTags) {
  common::ManualClock clock;
  PuzzleGenerator gen_a(clock, common::bytes_of("secret-a"));
  PuzzleGenerator gen_b(clock, common::bytes_of("secret-b"));
  const Puzzle a = gen_a.issue_for("1.2.3.4", 1, 5);
  // Forge: take a's fields, tag must not verify under b's key.
  const crypto::HmacKey key_b =
      PuzzleGenerator::derive_mac_key(common::bytes_of("secret-b"));
  EXPECT_NE(PuzzleGenerator::compute_auth(key_b, a), a.auth);
  (void)gen_b;
}

TEST(Generator, SeedStreamsDifferAcrossSecrets) {
  common::ManualClock clock;
  PuzzleGenerator gen_a(clock, common::bytes_of("secret-a"));
  PuzzleGenerator gen_b(clock, common::bytes_of("secret-b"));
  EXPECT_NE(gen_a.issue_for("1.2.3.4", 1, 1).seed,
            gen_b.issue_for("1.2.3.4", 1, 1).seed);
}

TEST(Generator, KeyedIssuanceIsOrderIndependent) {
  // The core property: issue_for is a pure function of identity —
  // interleaving other issues between two calls for the same
  // (ip, request_key) changes nothing, and two generator instances over
  // the same secret agree.
  common::ManualClock clock;
  const common::Bytes secret = common::bytes_of("keyed-secret");
  PuzzleGenerator gen(clock, secret);

  const Puzzle first = gen.issue_for("10.0.0.1", 7, 5);
  for (std::uint64_t i = 0; i < 10; ++i) (void)gen.issue_for("9.9.9.9", i, 3);
  (void)gen.issue_for("10.0.0.2", 7, 5);   // same key, other ip
  (void)gen.issue_for("10.0.0.1", 8, 5);   // same ip, other key
  const Puzzle again = gen.issue_for("10.0.0.1", 7, 5);
  EXPECT_EQ(again.puzzle_id, first.puzzle_id);
  EXPECT_EQ(again.seed, first.seed);
  EXPECT_EQ(again, first);  // frozen clock: every field matches

  PuzzleGenerator fresh(clock, secret);
  EXPECT_EQ(fresh.issue_for("10.0.0.1", 7, 5), first);
}

TEST(Generator, KeyedIdsDistinctAcrossIpAndKey) {
  common::ManualClock clock;
  PuzzleGenerator gen(clock, common::bytes_of("keyed-secret"));
  std::set<std::uint64_t> ids;
  for (std::uint64_t key = 0; key < 16; ++key) {
    for (int c = 0; c < 16; ++c) {
      ids.insert(gen.derive_puzzle_id("10.0.0." + std::to_string(c), key));
    }
  }
  EXPECT_EQ(ids.size(), 256u);
}

TEST(Generator, DerivePuzzleIdMatchesIssueFor) {
  common::ManualClock clock;
  PuzzleGenerator gen(clock, common::bytes_of("keyed-secret"));
  const std::uint64_t id = gen.derive_puzzle_id("192.0.2.77", 31337);
  EXPECT_EQ(gen.issue_for("192.0.2.77", 31337, 4).puzzle_id, id);
}

TEST(Generator, CounterAndKeyedIdentityDomainsDoNotAlias) {
  // There is one identity domain: a tool keying puzzles by a loop
  // counter (1, 2, …) and a client using request ids 1, 2, … share it,
  // so only the bound ip tells their puzzles apart — and it must.
  common::ManualClock clock;
  PuzzleGenerator gen(clock, common::bytes_of("keyed-secret"));
  const Puzzle counter_keyed = gen.issue_for("198.51.100.2", 1, 5);
  const Puzzle request_keyed = gen.issue_for("1.2.3.4", 1, 5);
  EXPECT_NE(counter_keyed.puzzle_id, request_keyed.puzzle_id);
  EXPECT_NE(counter_keyed.seed, request_keyed.seed);
}

TEST(Generator, KeyedIssuanceVerifiesAndCounts) {
  common::ManualClock clock;
  const common::Bytes secret = common::bytes_of("keyed-secret");
  PuzzleGenerator gen(clock, secret);
  const Puzzle p = gen.issue_for("10.1.2.3", 99, 6);
  EXPECT_EQ(p.client_binding, "10.1.2.3");
  EXPECT_EQ(p.difficulty, 6u);
  EXPECT_EQ(p.seed.size(), 32u);
  const crypto::HmacKey mac_key = PuzzleGenerator::derive_mac_key(secret);
  EXPECT_EQ(PuzzleGenerator::compute_auth(mac_key, p), p.auth);
  EXPECT_EQ(gen.issued_count(), 1u);
}

}  // namespace
}  // namespace powai::pow
