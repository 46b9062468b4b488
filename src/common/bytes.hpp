#pragma once
/// \file bytes.hpp
/// Byte-buffer helpers shared across the library: a hex codec,
/// conversions between strings and byte vectors, and a streaming
/// big-endian writer/reader used by the wire protocol.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace powai::common {

/// Canonical owned byte buffer used throughout the library.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over a byte buffer.
using BytesView = std::span<const std::uint8_t>;

/// Encodes \p data as lowercase hexadecimal ("deadbeef").
[[nodiscard]] std::string to_hex(BytesView data);

/// Decodes a hex string (case-insensitive, even length). Returns
/// std::nullopt on any malformed input rather than throwing, because hex
/// frequently arrives from the network.
[[nodiscard]] std::optional<Bytes> from_hex(std::string_view hex);

/// Copies the characters of \p text into a byte buffer (no encoding).
[[nodiscard]] Bytes bytes_of(std::string_view text);

/// Interprets \p data as characters (no validation; lossless for ASCII).
[[nodiscard]] std::string string_of(BytesView data);

/// Appends \p src to \p dst.
void append(Bytes& dst, BytesView src);

/// Appends the big-endian encoding of an unsigned integer to \p dst.
void append_u16be(Bytes& dst, std::uint16_t value);
void append_u32be(Bytes& dst, std::uint32_t value);
void append_u64be(Bytes& dst, std::uint64_t value);

/// Stores the big-endian encoding of \p value into the 8 bytes at \p dst
/// — the allocation-free sibling of append_u64be for fixed buffers on
/// hot paths (the solver's per-nonce store).
inline void store_u64be(std::uint8_t* dst, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<std::uint8_t>(value >> (8 * (7 - i)));
  }
}

/// Incremental big-endian reader over a byte view. All \c read_* methods
/// return std::nullopt once the underlying buffer is exhausted; the cursor
/// is not advanced on failure, so callers can safely probe.
class ByteReader final {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

  [[nodiscard]] std::optional<std::uint8_t> read_u8();
  [[nodiscard]] std::optional<std::uint16_t> read_u16be();
  [[nodiscard]] std::optional<std::uint32_t> read_u32be();
  [[nodiscard]] std::optional<std::uint64_t> read_u64be();

  /// Reads exactly \p n bytes, or std::nullopt if fewer remain.
  [[nodiscard]] std::optional<Bytes> read_bytes(std::size_t n);

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace powai::common
