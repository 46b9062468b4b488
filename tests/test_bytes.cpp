// Tests for common/bytes: the hex codec and the big-endian reader.

#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace powai::common {
namespace {

TEST(Hex, EncodesKnownVector) {
  const Bytes data = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(to_hex(data), "deadbeef");
}

TEST(Hex, EncodesEmpty) { EXPECT_EQ(to_hex(Bytes{}), ""); }

TEST(Hex, DecodesKnownVector) {
  const auto decoded = from_hex("deadbeef");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, DecodeIsCaseInsensitive) {
  const auto decoded = from_hex("DeAdBeEf");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, RejectsNonHexCharacters) {
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_FALSE(from_hex("0g").has_value());
  EXPECT_FALSE(from_hex("0 ").has_value());
}

TEST(Hex, RoundTripsRandomBuffers) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data(rng.uniform_u64(0, 100));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
    const auto decoded = from_hex(to_hex(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

TEST(ByteAppend, BigEndianEncodings) {
  Bytes out;
  append_u16be(out, 0x0102);
  append_u32be(out, 0x03040506);
  append_u64be(out, 0x0708090a0b0c0d0eULL);
  const Bytes expected = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                          0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e};
  EXPECT_EQ(out, expected);
}

TEST(ByteReader, ReadsBackWhatWasWritten) {
  Bytes buf;
  append_u16be(buf, 513);
  append_u32be(buf, 123456789);
  append_u64be(buf, 0xfedcba9876543210ULL);
  append(buf, bytes_of("tail"));

  ByteReader reader(buf);
  EXPECT_EQ(reader.read_u16be(), 513);
  EXPECT_EQ(reader.read_u32be(), 123456789u);
  EXPECT_EQ(reader.read_u64be(), 0xfedcba9876543210ULL);
  const auto tail = reader.read_bytes(4);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(string_of(*tail), "tail");
  EXPECT_TRUE(reader.empty());
}

TEST(ByteReader, FailsGracefullyOnShortBuffer) {
  const Bytes buf = {0x01, 0x02, 0x03};
  ByteReader reader(buf);
  EXPECT_FALSE(reader.read_u32be().has_value());
  // Cursor is not advanced by the failed read.
  EXPECT_EQ(reader.remaining(), 3u);
  EXPECT_EQ(reader.read_u16be(), 0x0102);
  EXPECT_FALSE(reader.read_u16be().has_value());
  EXPECT_EQ(reader.read_u8(), 0x03);
  EXPECT_FALSE(reader.read_u8().has_value());
}

TEST(ByteReader, ReadBytesZeroAlwaysSucceeds) {
  ByteReader reader(BytesView{});
  const auto empty = reader.read_bytes(0);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(StringBytes, RoundTrip) {
  const std::string text = "hello \x01 world";
  EXPECT_EQ(string_of(bytes_of(text)), text);
}

}  // namespace
}  // namespace powai::common
