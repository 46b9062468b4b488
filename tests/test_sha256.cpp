// Tests for SHA-256 against FIPS/NIST vectors, plus the difficulty
// helpers the PoW layer is built on. The KAT suite is parameterized
// over every compression backend this CPU supports (generic scalar,
// SHA-NI, AVX2) so a dispatch bug can never hide behind the default
// selection; midstate and hash_many cross-checks live in
// test_sha256_dispatch.cpp.

#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace powai::crypto {
namespace {

using common::Bytes;
using common::bytes_of;
using common::to_hex;

std::string hex_digest(const Digest& d) {
  return to_hex(common::BytesView(d.data(), d.size()));
}

// ---------------------------------------------------------------------------
// Known-answer tests, forced onto each supported backend in turn.
// ---------------------------------------------------------------------------

class Sha256Kat : public ::testing::TestWithParam<Sha256Backend> {
 protected:
  void SetUp() override {
    previous_ = Sha256::backend();
    ASSERT_TRUE(Sha256::set_backend(GetParam()))
        << "supported_backends() offered an unusable backend";
  }
  void TearDown() override { ASSERT_TRUE(Sha256::set_backend(previous_)); }

 private:
  Sha256Backend previous_ = Sha256Backend::kGeneric;
};

TEST_P(Sha256Kat, EmptyMessage) {
  EXPECT_EQ(hex_digest(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256Kat, Abc) {
  EXPECT_EQ(hex_digest(Sha256::hash(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256Kat, TwoBlockMessage) {
  EXPECT_EQ(
      hex_digest(Sha256::hash(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Kat, FourBlockMessage) {
  // FIPS 180-4 / NIST CAVP 896-bit message.
  EXPECT_EQ(
      hex_digest(Sha256::hash(bytes_of(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
          "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST_P(Sha256Kat, NistOneByte) {
  // NIST SHA-256 example vector: the single byte 0xbd.
  const Bytes msg{0xbd};
  EXPECT_EQ(hex_digest(Sha256::hash(msg)),
            "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b");
}

TEST_P(Sha256Kat, NistFourBytes) {
  // NIST SHA-256 example vector: the 4-byte message 0xc98c8e55.
  const Bytes msg{0xc9, 0x8c, 0x8e, 0x55};
  EXPECT_EQ(hex_digest(Sha256::hash(msg)),
            "7abc22c0ae5af26ce93dbb94433a0e0b2e119d014f8e7f65bd56c61ccccd9504");
}

TEST_P(Sha256Kat, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_digest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Kat, ExactlyOneBlock) {
  // 64 bytes: padding must spill into a second block.
  const Bytes data(64, 0x61);
  EXPECT_EQ(hex_digest(Sha256::hash(data)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST_P(Sha256Kat, FiftyFiveAndFiftySixBytes) {
  // 55 bytes is the largest message whose padding fits in one block.
  const Bytes b55(55, 'a');
  const Bytes b56(56, 'a');
  EXPECT_EQ(hex_digest(Sha256::hash(b55)),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(hex_digest(Sha256::hash(b56)),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST_P(Sha256Kat, IncrementalMatchesOneShotAtEverySplit) {
  const Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog!!");
  const Digest expected = Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(common::BytesView(msg.data(), split));
    h.update(common::BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), expected) << "split=" << split;
  }
}

TEST_P(Sha256Kat, Hash2MatchesConcatenation) {
  common::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes a(rng.uniform_u64(0, 100));
    Bytes b(rng.uniform_u64(0, 100));
    for (auto& x : a) x = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
    Bytes joined = a;
    common::append(joined, b);
    EXPECT_EQ(Sha256::hash2(a, b), Sha256::hash(joined));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, Sha256Kat,
    ::testing::ValuesIn(Sha256::supported_backends()),
    [](const ::testing::TestParamInfo<Sha256Backend>& info) {
      return std::string(Sha256::backend_name(info.param));
    });

// ---------------------------------------------------------------------------
// Backend-independent behavior (runs under the default selection).
// ---------------------------------------------------------------------------

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.update(bytes_of("x"));
  (void)h.finish();
  EXPECT_THROW(h.update(bytes_of("y")), std::logic_error);
  EXPECT_THROW((void)h.finish(), std::logic_error);
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(bytes_of("abc"));
  const Digest first = h.finish();
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(h.finish(), first);
}

TEST(Sha256, GenericBackendAlwaysSupported) {
  const auto backends = Sha256::supported_backends();
  EXPECT_NE(std::find(backends.begin(), backends.end(),
                      Sha256Backend::kGeneric),
            backends.end());
  // The active backend is always one of the supported set.
  EXPECT_NE(std::find(backends.begin(), backends.end(), Sha256::backend()),
            backends.end());
}

TEST(Sha256, BackendNamesAreStable) {
  EXPECT_EQ(Sha256::backend_name(Sha256Backend::kGeneric), "generic");
  EXPECT_EQ(Sha256::backend_name(Sha256Backend::kShaNi), "shani");
  EXPECT_EQ(Sha256::backend_name(Sha256Backend::kAvx2), "avx2");
  EXPECT_EQ(Sha256::backend_name(Sha256Backend::kShaNiAvx512), "shani_avx512");
}

TEST(LeadingZeroBits, AllZeroDigestIs256) {
  Digest d{};
  EXPECT_EQ(leading_zero_bits(d), 256u);
}

TEST(LeadingZeroBits, TopBitSetIsZero) {
  Digest d{};
  d[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(d), 0u);
}

TEST(LeadingZeroBits, CountsWithinFirstByte) {
  Digest d{};
  d[0] = 0x01;  // 7 leading zeros then a one
  EXPECT_EQ(leading_zero_bits(d), 7u);
  d[0] = 0x10;
  EXPECT_EQ(leading_zero_bits(d), 3u);
}

TEST(LeadingZeroBits, CountsAcrossBytes) {
  Digest d{};
  d[0] = 0x00;
  d[1] = 0x40;  // 8 + 1 leading zeros
  EXPECT_EQ(leading_zero_bits(d), 9u);
  d[1] = 0x00;
  d[2] = 0xff;
  EXPECT_EQ(leading_zero_bits(d), 16u);
}

TEST(MeetsDifficulty, ThresholdSemantics) {
  Digest d{};
  d[0] = 0x0f;  // exactly 4 leading zero bits
  EXPECT_TRUE(meets_difficulty(d, 0));
  EXPECT_TRUE(meets_difficulty(d, 4));
  EXPECT_FALSE(meets_difficulty(d, 5));
}

TEST(MeetsDifficulty, StateWordsAgreeWithTheSerializedDigest) {
  // The solver tests chaining words without serializing them. Crafted
  // states with 0-8 leading zero words and the first non-zero word's
  // top set bit at every position must give the digest's answer at
  // every d (the solver's band reaches 40 bits, past word A), and the
  // words must serialize big-endian in order.
  for (std::size_t zero_words = 0; zero_words <= 8; ++zero_words) {
    for (unsigned bit = 0; bit < (zero_words < 8 ? 32u : 1u); ++bit) {
      Sha256State state;
      state.fill(0xffffffffu);
      for (std::size_t i = 0; i < zero_words; ++i) state[i] = 0;
      if (zero_words < 8) state[zero_words] = 0x80000000u >> bit;
      const Digest digest = to_digest(state);
      for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t b = 0; b < 4; ++b) {
          EXPECT_EQ(digest[4 * i + b],
                    static_cast<std::uint8_t>(state[i] >> (24 - 8 * b)));
        }
      }
      const unsigned expected_bits = static_cast<unsigned>(32 * zero_words) +
                                     (zero_words < 8 ? bit : 0u);
      EXPECT_EQ(leading_zero_bits(digest), expected_bits);
      for (unsigned d = 0; d <= 257; ++d) {
        EXPECT_EQ(meets_difficulty(state, d), meets_difficulty(digest, d))
            << "zero_words=" << zero_words << " bit=" << bit << " d=" << d;
      }
    }
  }
}

TEST(ConstantTimeEqual, Basics) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes shorter = {1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, shorter));
  EXPECT_TRUE(constant_time_equal({}, {}));
}

// Property: flipping any single input bit changes the digest (collision
// would be astronomically unlikely).
TEST(Sha256, AvalancheOnSingleBitFlips) {
  const Bytes base = bytes_of("avalanche-property-input");
  const Digest base_digest = Sha256::hash(base);
  for (std::size_t byte = 0; byte < base.size(); ++byte) {
    Bytes mutated = base;
    mutated[byte] ^= 0x01;
    EXPECT_NE(Sha256::hash(mutated), base_digest) << "byte=" << byte;
  }
}

}  // namespace
}  // namespace powai::crypto
