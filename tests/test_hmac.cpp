// Tests for HMAC-SHA256 against RFC 4231 vectors and the key-derivation
// helper.

#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace powai::crypto {
namespace {

using common::Bytes;
using common::bytes_of;
using common::from_hex;
using common::to_hex;

std::string hex_digest(const Digest& d) {
  return to_hex(common::BytesView(d.data(), d.size()));
}

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest mac = hmac_sha256(key, bytes_of("Hi There"));
  EXPECT_EQ(hex_digest(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Digest mac =
      hmac_sha256(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(hex_digest(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(hex_digest(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  const Bytes key = from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819").value();
  const Bytes msg(50, 0xcd);
  EXPECT_EQ(hex_digest(hmac_sha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Case5Truncation) {
  // Case 5 specifies a MAC truncated to 128 bits; we compute the full
  // tag and compare its prefix.
  const Bytes key(20, 0x0c);
  const Digest mac = hmac_sha256(key, bytes_of("Test With Truncation"));
  EXPECT_EQ(hex_digest(mac).substr(0, 32), "a3b6167473100ee06e0c796c2955552b");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  // Key longer than the block size must be hashed first.
  const Bytes key(131, 0xaa);
  const Digest mac = hmac_sha256(
      key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_digest(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  const Digest mac = hmac_sha256(
      key,
      bytes_of("This is a test using a larger than block-size key and a "
               "larger than block-size data. The key needs to be hashed "
               "before being used by the HMAC algorithm."));
  EXPECT_EQ(hex_digest(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, IncrementalMatchesOneShot) {
  // The cached-key form's two message parts may split anywhere: every
  // split matches the one-shot MAC over the whole message, including
  // splits that put the block boundary inside either part.
  const Bytes key = bytes_of("server-secret");
  const HmacKey cached(key);
  Bytes whole;
  for (int i = 0; i < 150; ++i) whole.push_back(static_cast<std::uint8_t>(i));
  const common::BytesView all(whole);
  for (std::size_t len : {std::size_t{0}, std::size_t{55}, std::size_t{56},
                          std::size_t{119}, std::size_t{120}, whole.size()}) {
    const common::BytesView msg = all.first(len);
    const Digest expected = hmac_sha256(key, msg);
    for (std::size_t split = 0; split <= len; ++split) {
      EXPECT_EQ(hmac_sha256(cached, msg.first(split), msg.subspan(split)),
                expected)
          << "len=" << len << " split=" << split;
    }
  }
}

TEST(Hmac, CachedKeyMatchesRfc4231) {
  // Cases 1, 2, 6 and 7 (short, ASCII, and longer-than-block keys), plus
  // the empty key, through a key absorbed once and reused.
  struct Case {
    Bytes key;
    Bytes msg;
    const char* mac;
  };
  const Case cases[] = {
      {Bytes(20, 0x0b), bytes_of("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {bytes_of("Jefe"), bytes_of("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(131, 0xaa),
       bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       bytes_of("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
      {Bytes{}, Bytes{},
       "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad"},
  };
  for (const Case& c : cases) {
    const HmacKey key(c.key);
    EXPECT_EQ(hex_digest(hmac_sha256(key, c.msg)), c.mac);
    EXPECT_EQ(hex_digest(hmac_sha256(key, c.msg)), c.mac);  // reusable
  }
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const Bytes msg = bytes_of("same message");
  EXPECT_NE(hmac_sha256(bytes_of("key-one"), msg),
            hmac_sha256(bytes_of("key-two"), msg));
}

TEST(DeriveKey, DistinctLabelsDistinctKeys) {
  const Bytes master = bytes_of("master-secret");
  const Bytes seed_key = derive_key(master, bytes_of("seed"), 32);
  const Bytes mac_key = derive_key(master, bytes_of("mac"), 32);
  EXPECT_EQ(seed_key.size(), 32u);
  EXPECT_EQ(mac_key.size(), 32u);
  EXPECT_NE(seed_key, mac_key);
}

TEST(DeriveKey, DeterministicAndLengthRespecting) {
  const Bytes master = bytes_of("master");
  const Bytes a = derive_key(master, bytes_of("label"), 16);
  const Bytes b = derive_key(master, bytes_of("label"), 16);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 16u);
  // A 16-byte request is the prefix of the 32-byte expansion.
  const Bytes full = derive_key(master, bytes_of("label"), 32);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), full.begin()));
}

TEST(DeriveKey, RejectsBadLengths) {
  const Bytes master = bytes_of("master");
  EXPECT_THROW((void)derive_key(master, bytes_of("x"), 0), std::invalid_argument);
  EXPECT_THROW((void)derive_key(master, bytes_of("x"), 33), std::invalid_argument);
}

}  // namespace
}  // namespace powai::crypto
