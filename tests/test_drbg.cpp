// Tests for the HMAC-DRBG family: determinism, separation, stream quality
// basics.

#include "crypto/drbg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"

namespace powai::crypto {
namespace {

using common::Bytes;
using common::bytes_of;

// HMAC_DRBG stream properties, through DerivedDrbg — the library's one
// HMAC_DRBG: stream `id` of a family is the SP 800-90A instance seeded
// with (key, personalization || id).

TEST(HmacDrbg, DeterministicFromSeed) {
  const DerivedDrbg a(bytes_of("entropy-input"));
  const DerivedDrbg b(bytes_of("entropy-input"));
  EXPECT_EQ(a.generate(0, 64), b.generate(0, 64));
  EXPECT_EQ(a.next_u64(0), b.next_u64(0));
}

TEST(HmacDrbg, PersonalizationSeparatesStreams) {
  const DerivedDrbg a(bytes_of("seed"), bytes_of("issuer"));
  const DerivedDrbg b(bytes_of("seed"), bytes_of("verifier"));
  EXPECT_NE(a.generate(0, 32), b.generate(0, 32));
}

TEST(HmacDrbg, DifferentSeedsDifferentStreams) {
  const DerivedDrbg a(bytes_of("seed-1"));
  const DerivedDrbg b(bytes_of("seed-2"));
  EXPECT_NE(a.generate(0, 32), b.generate(0, 32));
}

TEST(HmacDrbg, SequentialCallsAdvanceState) {
  // Generate advances V between output blocks: the second 32 bytes of a
  // draw do not repeat the first.
  const DerivedDrbg drbg(bytes_of("seed"));
  const Bytes draw = drbg.generate(0, 64);
  EXPECT_FALSE(std::equal(draw.begin(), draw.begin() + 32, draw.begin() + 32));
}

TEST(HmacDrbg, GenerateExactLengths) {
  const DerivedDrbg drbg(bytes_of("seed"));
  EXPECT_EQ(drbg.generate(0, 1).size(), 1u);
  EXPECT_EQ(drbg.generate(0, 32).size(), 32u);
  EXPECT_EQ(drbg.generate(0, 33).size(), 33u);
  EXPECT_EQ(drbg.generate(0, 100).size(), 100u);
  EXPECT_TRUE(drbg.generate(0, 0).empty());
  // A shorter draw is a prefix of a longer one from the same stream.
  const Bytes long_draw = drbg.generate(0, 100);
  const Bytes short_draw = drbg.generate(0, 33);
  EXPECT_TRUE(std::equal(short_draw.begin(), short_draw.end(), long_draw.begin()));
}

TEST(HmacDrbg, NextU64ProducesDistinctValues) {
  const DerivedDrbg drbg(bytes_of("seed"));
  std::set<std::uint64_t> seen;
  for (std::uint64_t id = 0; id < 1000; ++id) seen.insert(drbg.next_u64(id));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HmacDrbg, ByteDistributionRoughlyUniform) {
  const DerivedDrbg drbg(bytes_of("distribution-check"));
  const Bytes stream = drbg.generate(0, 256 * 64);
  std::array<int, 256> counts{};
  for (std::uint8_t b : stream) ++counts[b];
  // Chi-square against uniform; 99.9th percentile of chi2(255) ~ 340.
  double chi2 = 0.0;
  const double expected = static_cast<double>(stream.size()) / 256.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 340.0);
}

TEST(DerivedDrbg, PureFunctionOfKeyAndId) {
  const DerivedDrbg family(bytes_of("derived-key"), bytes_of("test-family"));
  // Same id → same bytes, however many times and in whatever order.
  const Bytes a = family.generate(42, 32);
  (void)family.generate(7, 32);
  (void)family.generate(1, 8);
  EXPECT_EQ(family.generate(42, 32), a);
  // A second instance with the same material reproduces the stream.
  const DerivedDrbg again(bytes_of("derived-key"), bytes_of("test-family"));
  EXPECT_EQ(again.generate(42, 32), a);
}

TEST(DerivedDrbg, DistinctIdsKeysAndPersonalizationsDiverge) {
  const DerivedDrbg family(bytes_of("derived-key"), bytes_of("test-family"));
  std::set<std::string> streams;
  for (std::uint64_t id = 0; id < 64; ++id) {
    streams.insert(common::to_hex(family.generate(id, 32)));
  }
  EXPECT_EQ(streams.size(), 64u);

  const DerivedDrbg other_key(bytes_of("other-key"), bytes_of("test-family"));
  EXPECT_NE(other_key.generate(42, 32), family.generate(42, 32));
  const DerivedDrbg other_family(bytes_of("derived-key"), bytes_of("b"));
  EXPECT_NE(other_family.generate(42, 32), family.generate(42, 32));
}

TEST(DerivedDrbg, RejectsEmptyKey) {
  EXPECT_THROW(DerivedDrbg({}, bytes_of("x")), std::invalid_argument);
}

TEST(DerivedDrbg, MaterialUpToTheStackBufferAndNoMore) {
  const Bytes key(100, 0xab);
  const Bytes fits(DerivedDrbg::kMaxMaterial - key.size(), 0xcd);
  const DerivedDrbg family(key, fits);
  EXPECT_EQ(family.generate(3, 32), family.generate(3, 32));
  const Bytes too_long(fits.size() + 1, 0xcd);
  EXPECT_THROW(DerivedDrbg(key, too_long), std::invalid_argument);
}

TEST(OsEntropy, ProducesRequestedLength) {
  EXPECT_EQ(os_entropy(16).size(), 16u);
  EXPECT_EQ(os_entropy(0).size(), 0u);
  EXPECT_EQ(os_entropy(33).size(), 33u);
}

TEST(OsEntropy, TwoCallsDiffer) {
  // 16 bytes colliding would mean a broken random_device.
  EXPECT_NE(os_entropy(16), os_entropy(16));
}

}  // namespace
}  // namespace powai::crypto
