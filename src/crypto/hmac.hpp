#pragma once
/// \file hmac.hpp
/// HMAC-SHA256 (RFC 2104). The puzzle issuer tags every puzzle with
/// HMAC(mac-key, prefix || puzzle-id), so the verifier can check a
/// puzzle's fields statelessly; the seed DRBG and the key derivation
/// are HMACs too.
///
/// A key is absorbed once into an HmacKey — the SHA-256 midstates after
/// its ipad and opad blocks — so each MAC under a fixed key compresses
/// only the message and one outer block.

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace powai::crypto {

/// One HMAC-SHA256 key, pre-absorbed: the midstates after the
/// `key ^ ipad` and `key ^ opad` blocks. Plain value type; immutable
/// after construction, so one instance may be shared across threads.
struct HmacKey final {
  /// Absorbs \p key (any length; keys longer than a block are hashed
  /// first, per RFC 2104). Two compressions.
  explicit HmacKey(common::BytesView key);

  Sha256Midstate inner;  ///< after the key ^ 0x36 block
  Sha256Midstate outer;  ///< after the key ^ 0x5c block
};

/// HMAC-SHA256 over the concatenation \p a || \p b under a cached key —
/// the two parts spare callers a concatenation buffer. Allocation-free
/// for messages up to 119 bytes.
[[nodiscard]] Digest hmac_sha256(const HmacKey& key, common::BytesView a,
                                 common::BytesView b = {});

/// One-shot HMAC-SHA256 over \p message with \p key (any key length).
[[nodiscard]] Digest hmac_sha256(common::BytesView key,
                                 common::BytesView message);

/// HKDF-style expand (single block, n <= 32 bytes): derives a sub-key
/// labelled by \p info from \p key. Used to separate the issuer's seed
/// key from its MAC key from one master secret.
[[nodiscard]] common::Bytes derive_key(common::BytesView key,
                                       common::BytesView info, std::size_t n);

}  // namespace powai::crypto
