// Known-answer vectors for the issuance path: the per-id seed DRBG, the
// HMAC under an empty key, and whole puzzles from a fixed secret on a
// manual clock. The values were produced by the streaming SP 800-90A
// reference (instantiate → generate → update) and pin that every
// optimisation of the crypto keeps issued seeds, ids, MACs and prefixes
// byte-identical.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "pow/generator.hpp"

namespace powai {
namespace {

using common::Bytes;
using common::bytes_of;

constexpr std::uint64_t kTopBit = std::uint64_t{1} << 63;

struct DrbgVector {
  std::uint64_t id;
  std::size_t n;
  const char* hex;
};

void expect_family(const crypto::DerivedDrbg& family,
                   std::initializer_list<DrbgVector> vectors) {
  for (const DrbgVector& v : vectors) {
    EXPECT_EQ(common::to_hex(family.generate(v.id, v.n)), v.hex)
        << "id=" << v.id << " n=" << v.n;
  }
}

// Short key and personalization: the fixed instantiate prefix stays in
// the first block after ipad, and the per-id remainder spills into a
// second block.
TEST(IssuanceKat, DerivedDrbgShortMaterial) {
  const crypto::DerivedDrbg family(bytes_of("derived-key"),
                                   bytes_of("test-family"));
  expect_family(
      family,
      {{0, 8, "945e83615431ba22"},
       {0, 32, "945e83615431ba22b2f2265b2acaefaaa8a9bc5a178c07e1f2149feb9dd8cc00"},
       {0, 33, "945e83615431ba22b2f2265b2acaefaaa8a9bc5a178c07e1f2149feb9dd8cc00c6"},
       {0, 64,
        "945e83615431ba22b2f2265b2acaefaaa8a9bc5a178c07e1f2149feb9dd8cc00"
        "c6bc5b5a8042e057648e8523276cc677165641d6824920fcb74c64b4a9fc2528"},
       {1, 8, "ca03fa0b746e6b9b"},
       {1, 32, "ca03fa0b746e6b9b36875678dcd3954c69fa4ea4fb0841eb664283713c6097c2"},
       {1, 33, "ca03fa0b746e6b9b36875678dcd3954c69fa4ea4fb0841eb664283713c6097c2c8"},
       {1, 64,
        "ca03fa0b746e6b9b36875678dcd3954c69fa4ea4fb0841eb664283713c6097c2"
        "c84e3f5c61fa452c24bf95bb859111e78c0e16a8b911417ddb4bddc62cee9574"},
       {kTopBit, 8, "c96f3d145908e3eb"},
       {kTopBit, 32,
        "c96f3d145908e3eb5aae52455817f48862caae63d5d83793e6c132219d808686"},
       {kTopBit, 33,
        "c96f3d145908e3eb5aae52455817f48862caae63d5d83793e6c132219d808686f9"},
       {kTopBit, 64,
        "c96f3d145908e3eb5aae52455817f48862caae63d5d83793e6c132219d808686"
        "f9e0748163b60aa2207c94cbd6f081bd1eceb0120e2393b140542635c4b35dfc"}});
  EXPECT_EQ(family.next_u64(0), 0x945e83615431ba22ull);
  EXPECT_EQ(family.next_u64(1), 0xca03fa0b746e6b9bull);
  EXPECT_EQ(family.next_u64(kTopBit), 0xc96f3d145908e3ebull);
}

// The issuer's shape: a 32-byte derived key and its 15-byte
// personalization, long enough that the fixed prefix fills a second
// block.
TEST(IssuanceKat, DerivedDrbgIssuerShapedMaterial) {
  Bytes key(32);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  const crypto::DerivedDrbg family(key, bytes_of("powai-seed-drbg"));
  expect_family(
      family,
      {{0, 8, "fe2497de4f187bfe"},
       {0, 32, "fe2497de4f187bfe2d845f1670ee2c1129b9635b68072fab72e3c6b316430a73"},
       {0, 33, "fe2497de4f187bfe2d845f1670ee2c1129b9635b68072fab72e3c6b316430a73a1"},
       {0, 64,
        "fe2497de4f187bfe2d845f1670ee2c1129b9635b68072fab72e3c6b316430a73"
        "a15a55dfcd349dd8d2eca98de34d590ae0d79685a6b316b5e985f01a3bbe8d32"},
       {1, 8, "e727201ade88c49f"},
       {1, 32, "e727201ade88c49fe6c956ab2591680d0c92cdd5751f802d01929a2988e97087"},
       {1, 33, "e727201ade88c49fe6c956ab2591680d0c92cdd5751f802d01929a2988e97087ef"},
       {1, 64,
        "e727201ade88c49fe6c956ab2591680d0c92cdd5751f802d01929a2988e97087"
        "eff0d86a0079e85b07f2d1fc634e1631772bc3c617ac9be41d8a04c4ae8d4005"},
       {kTopBit, 8, "0ee41826f5f07869"},
       {kTopBit, 32,
        "0ee41826f5f0786935d2231a9760eae04271931b42b3c71bce494c08a38949f4"},
       {kTopBit, 33,
        "0ee41826f5f0786935d2231a9760eae04271931b42b3c71bce494c08a38949f47a"},
       {kTopBit, 64,
        "0ee41826f5f0786935d2231a9760eae04271931b42b3c71bce494c08a38949f4"
        "7abdd610bc4a7af3a5c4762d6ab27937d5e5732f235da5b7cd9700c7c2d826d8"}});
  EXPECT_EQ(family.next_u64(0), 0xfe2497de4f187bfeull);
  EXPECT_EQ(family.next_u64(1), 0xe727201ade88c49full);
  EXPECT_EQ(family.next_u64(kTopBit), 0x0ee41826f5f07869ull);
}

TEST(IssuanceKat, HmacUnderEmptyKey) {
  EXPECT_EQ(common::to_hex(crypto::hmac_sha256({}, {})),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
  EXPECT_EQ(common::to_hex(crypto::hmac_sha256(
                {}, bytes_of("The quick brown fox jumps over the lazy dog"))),
            "fb011e6154a19b9a4c767373c305275a5a69e8b68b0b4c9200c383dced19a416");
}

TEST(IssuanceKat, DeriveKey) {
  EXPECT_EQ(common::to_hex(crypto::derive_key(bytes_of("kat-master-secret"),
                                              bytes_of("seed"), 32)),
            "04f3c155d0e4e549887e899a19a55808a501bc9db39479cc43d34d57b1edbb5f");
}

struct PuzzleVector {
  std::string ip;
  std::uint64_t request_key;
  unsigned difficulty;
  std::uint64_t id;
  const char* seed;
  const char* auth;
};

// Whole puzzles: id (SipHash PRF), seed (DRBG), MAC and prefix. The
// 80-byte binding pushes the MAC input past two blocks.
TEST(IssuanceKat, IssueForFixedSecret) {
  common::ManualClock clock(common::TimePoint{} +
                            std::chrono::milliseconds(1700000000123));
  pow::PuzzleGenerator gen(clock, bytes_of("kat-master-secret"));
  const PuzzleVector vectors[] = {
      {"203.0.113.7", 42, 12, 0x7bee81cd15a30227ull,
       "df523d96fe2ab7a26f102c218fc96b79b6f78c4e69b2015bdacdff61b7090077",
       "443abbfeb74b72ef099db71d84c9d2b7fd203fd381eaa01f09d0835bf8fbc0fd"},
      {"2001:db8::1", 0, 0, 0xa19ddf57eebdba09ull,
       "6646436c8b669d5b50b88c0337095e8f0a38c3201385e63dbbb14454881191d6",
       "985020ec75aabea2c59317e80b61d0ca21c048367acf91c5478b1c2f2e85851e"},
      {std::string(80, 'x'), 7, 20, 0xd4b0117f0aa3cb80ull,
       "ed6a69acf6135868b6d8f6a648bff55e53dea48781ffe2c70a75a38843e01e11",
       "78f4f2489a32a3993a3849463d7888771df1808fc668ee9722f889525e8e6988"},
  };
  for (const PuzzleVector& v : vectors) {
    const pow::Puzzle p = gen.issue_for(v.ip, v.request_key, v.difficulty);
    EXPECT_EQ(p.puzzle_id, v.id) << v.ip;
    EXPECT_EQ(common::to_hex(p.seed), v.seed) << v.ip;
    EXPECT_EQ(common::to_hex(common::BytesView(p.auth.data(), p.auth.size())),
              v.auth)
        << v.ip;
    EXPECT_EQ(common::string_of(p.prefix_bytes()),
              "POWAI1|" + std::string(v.seed) + "|1700000000123|" +
                  std::to_string(v.difficulty) + "|" + v.ip + "|");
  }
}

TEST(IssuanceKat, PrefixOfExtremeFields) {
  pow::Puzzle p;
  p.seed = {0xde, 0xad};
  p.issued_at_ms = -5;
  p.difficulty = 4294967295u;
  EXPECT_EQ(common::string_of(p.prefix_bytes()), "POWAI1|dead|-5|4294967295||");
}

}  // namespace
}  // namespace powai
