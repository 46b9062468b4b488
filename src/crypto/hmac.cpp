#include "crypto/hmac.hpp"

#include <cstring>
#include <stdexcept>

namespace powai::crypto {

namespace {

/// The midstate after one block of `key_block ^ pad`.
Sha256Midstate absorb_padded(
    const std::array<std::uint8_t, Sha256::kBlockSize>& key_block,
    std::uint8_t pad) {
  std::array<std::uint8_t, Sha256::kBlockSize> block{};
  for (std::size_t i = 0; i < block.size(); ++i) block[i] = key_block[i] ^ pad;
  return Sha256::precompute(block);
}

/// Prepares the padded key block: hash keys longer than the block size,
/// zero-pad to exactly one block.
std::array<std::uint8_t, Sha256::kBlockSize> normalize_key(
    common::BytesView key) {
  std::array<std::uint8_t, Sha256::kBlockSize> block{};
  if (key.size() > Sha256::kBlockSize) {
    const Digest digest = Sha256::hash(key);
    std::memcpy(block.data(), digest.data(), digest.size());
  } else if (!key.empty()) {  // an empty key may be a null view
    std::memcpy(block.data(), key.data(), key.size());
  }
  return block;
}

}  // namespace

HmacKey::HmacKey(common::BytesView key) {
  const auto key_block = normalize_key(key);
  inner = absorb_padded(key_block, 0x36);
  outer = absorb_padded(key_block, 0x5c);
}

Digest hmac_sha256(const HmacKey& key, common::BytesView a,
                   common::BytesView b) {
  const Digest inner = Sha256::finish_with_suffix(key.inner, a, b);
  return Sha256::finish_with_suffix(key.outer, inner, {});
}

Digest hmac_sha256(common::BytesView key, common::BytesView message) {
  return hmac_sha256(HmacKey(key), message);
}

common::Bytes derive_key(common::BytesView key, common::BytesView info,
                         std::size_t n) {
  if (n == 0 || n > Sha256::kDigestSize) {
    throw std::invalid_argument("derive_key: n must be in [1, 32]");
  }
  // HKDF-Expand with a single block: T(1) = HMAC(key, info || 0x01).
  const std::uint8_t counter = 0x01;
  const Digest t1 =
      hmac_sha256(HmacKey(key), info, common::BytesView(&counter, 1));
  return common::Bytes(t1.begin(), t1.begin() + static_cast<std::ptrdiff_t>(n));
}

}  // namespace powai::crypto
