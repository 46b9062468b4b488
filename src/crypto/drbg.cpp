#include "crypto/drbg.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace powai::crypto {

namespace {

constexpr std::size_t kOutLen = Sha256::kDigestSize;

/// `V || tag` heads both of instantiate's K-update messages.
constexpr std::size_t kVTag = kOutLen + 1;

/// K0, SP 800-90A's all-zero initial key. Only its opad midstate is used
/// per draw; its ipad block is folded into each family's midstate.
const HmacKey& zero_key() {
  static const HmacKey key(std::array<std::uint8_t, kOutLen>{});
  return key;
}

}  // namespace

DerivedDrbg::DerivedDrbg(common::BytesView key,
                         common::BytesView personalization) {
  if (key.empty()) {
    throw std::invalid_argument("DerivedDrbg: empty key");
  }
  if (key.size() + personalization.size() > kMaxMaterial) {
    throw std::invalid_argument(
        "DerivedDrbg: key + personalization exceed kMaxMaterial bytes");
  }
  // ipad(K0) || V0 || 0x00 || key || personalization, with V0 = 0x01 * 32.
  std::array<std::uint8_t, Sha256::kBlockSize + kVTag + kMaxMaterial> head{};
  std::uint8_t* p = std::fill_n(head.data(), Sha256::kBlockSize, 0x36);
  std::fill_n(p, kOutLen, 0x01);
  std::memcpy(p + kVTag, key.data(), key.size());
  if (!personalization.empty()) {
    std::memcpy(p + kVTag + key.size(), personalization.data(),
                personalization.size());
  }
  prefix_.assign(p, p + kVTag + key.size() + personalization.size());
  instantiate_ = Sha256::precompute(common::BytesView(
      head.data(), Sha256::kBlockSize + prefix_.size()));
}

void DerivedDrbg::fill(std::uint64_t id, std::uint8_t* out,
                       std::size_t n) const {
  // Instantiate: update(seed) from (K0, V0), seed = key ||
  // personalization || u64be(id).
  const common::BytesView prefix(prefix_);
  const common::BytesView material = prefix.subspan(kVTag);
  std::uint8_t id_be[8];
  common::store_u64be(id_be, id);

  // K1 = HMAC(K0, V0 || 0x00 || seed), resumed past the fixed prefix.
  const Digest k1_inner = Sha256::finish_with_suffix(
      instantiate_, prefix.subspan(instantiate_.absorbed - Sha256::kBlockSize),
      id_be);
  const HmacKey k1(Sha256::finish_with_suffix(zero_key().outer, k1_inner, {}));
  // V1 = HMAC(K1, V0).
  Digest v = hmac_sha256(k1, prefix.first(kOutLen));

  // K2 = HMAC(K1, V1 || 0x01 || seed).
  std::array<std::uint8_t, kVTag + kMaxMaterial + sizeof(id_be)> reseed{};
  std::memcpy(reseed.data(), v.data(), kOutLen);
  reseed[kOutLen] = 0x01;
  std::memcpy(reseed.data() + kVTag, material.data(), material.size());
  std::memcpy(reseed.data() + kVTag + material.size(), id_be, sizeof(id_be));
  const HmacKey k2(hmac_sha256(
      k1, common::BytesView(reseed).first(kVTag + material.size() +
                                          sizeof(id_be))));
  // V2 = HMAC(K2, V1).
  v = hmac_sha256(k2, v);

  // Generate: V = HMAC(K2, V) per output block.
  for (std::size_t done = 0; done < n; done += kOutLen) {
    v = hmac_sha256(k2, v);
    std::memcpy(out + done, v.data(), std::min(kOutLen, n - done));
  }
}

common::Bytes DerivedDrbg::generate(std::uint64_t id, std::size_t n) const {
  common::Bytes out(n);
  fill(id, out.data(), n);
  return out;
}

std::uint64_t DerivedDrbg::next_u64(std::uint64_t id) const {
  std::uint8_t bytes[8];
  fill(id, bytes, sizeof(bytes));
  std::uint64_t v = 0;
  for (std::uint8_t b : bytes) v = (v << 8) | b;
  return v;
}

common::Bytes os_entropy(std::size_t n) {
  std::random_device rd;
  common::Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    const unsigned int word = rd();
    for (std::size_t i = 0; i < sizeof(word) && out.size() < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
  }
  return out;
}

}  // namespace powai::crypto
