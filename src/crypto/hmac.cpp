#include "crypto/hmac.hpp"

#include <cstring>
#include <stdexcept>

namespace powai::crypto {

namespace {

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

HmacSha256::HmacSha256(common::BytesView key) {
  const auto key_block = normalize_key(key);
  std::array<std::uint8_t, Sha256::kBlockSize> ipad_key{};
  for (std::size_t i = 0; i < key_block.size(); ++i) {
    ipad_key[i] = key_block[i] ^ 0x36;
    opad_key_[i] = key_block[i] ^ 0x5c;
  }
  inner_.update(common::BytesView(ipad_key.data(), ipad_key.size()));
}

void HmacSha256::update(common::BytesView data) { inner_.update(data); }

Digest HmacSha256::finish() {
  const Digest inner_digest = inner_.finish();
  Sha256 outer;
  outer.update(common::BytesView(opad_key_.data(), opad_key_.size()));
  outer.update(common::BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Digest hmac_sha256(common::BytesView key, common::BytesView message) {
  HmacSha256 mac(key);
  mac.update(message);
  return mac.finish();
}

common::Bytes derive_key(common::BytesView key, common::BytesView info,
                         std::size_t n) {
  if (n == 0 || n > Sha256::kDigestSize) {
    throw std::invalid_argument("derive_key: n must be in [1, 32]");
  }
  // HKDF-Expand with a single block: T(1) = HMAC(key, info || 0x01).
  HmacSha256 mac(key);
  mac.update(info);
  const std::uint8_t counter = 0x01;
  mac.update(common::BytesView(&counter, 1));
  const Digest t1 = mac.finish();
  return common::Bytes(t1.begin(), t1.begin() + static_cast<std::ptrdiff_t>(n));
}

}  // namespace powai::crypto
