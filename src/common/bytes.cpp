#include "common/bytes.hpp"

namespace powai::common {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Maps an ASCII character to its hex value, or -1 if not a hex digit.
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

std::optional<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes bytes_of(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string string_of(BytesView data) {
  return std::string(data.begin(), data.end());
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void append_u16be(Bytes& dst, std::uint16_t value) {
  dst.push_back(static_cast<std::uint8_t>(value >> 8));
  dst.push_back(static_cast<std::uint8_t>(value));
}

void append_u32be(Bytes& dst, std::uint32_t value) {
  dst.push_back(static_cast<std::uint8_t>(value >> 24));
  dst.push_back(static_cast<std::uint8_t>(value >> 16));
  dst.push_back(static_cast<std::uint8_t>(value >> 8));
  dst.push_back(static_cast<std::uint8_t>(value));
}

void append_u64be(Bytes& dst, std::uint64_t value) {
  append_u32be(dst, static_cast<std::uint32_t>(value >> 32));
  append_u32be(dst, static_cast<std::uint32_t>(value));
}

std::optional<std::uint8_t> ByteReader::read_u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint16_t> ByteReader::read_u16be() {
  if (remaining() < 2) return std::nullopt;
  const std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::optional<std::uint32_t> ByteReader::read_u32be() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> ByteReader::read_u64be() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

std::optional<Bytes> ByteReader::read_bytes(std::size_t n) {
  if (remaining() < n) return std::nullopt;
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace powai::common
