#pragma once
/// \file drbg.hpp
/// HMAC-DRBG (NIST SP 800-90A, HMAC-SHA256 instantiation) as a keyed
/// family of one-shot streams. The issuer uses it to derive unique
/// puzzle seeds; unlike common::Rng it is suitable where predictability
/// would let an attacker pre-compute puzzle solutions.

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace powai::crypto {

/// A stateless *family* of DRBG streams under one key: stream `id` is
/// the SP 800-90A HMAC_DRBG instantiated with entropy = key and
/// personalization = (personalization || u64be(id)), and `generate(id,
/// n)` is that instance's first n-byte generate. The output is a pure
/// function of (key, personalization, id) — never of call order, thread
/// interleaving, or how many other streams were drawn first — which is
/// what makes issuance order-independent: the caller for id X gets the
/// same bytes in every run.
///
/// Each call runs instantiate + generate one-shot on the stack. The part
/// of instantiate's first HMAC that is fixed per family (the zero key's
/// ipad block, V0, and key || personalization) is absorbed once at
/// construction, and each derived key's midstates serve both HMACs under
/// it, so a 32-byte draw costs 15 SHA-256 compressions for the issuer's
/// key shape. The trailing update() of SP 800-90A's generate is skipped:
/// its state would only feed a second draw, which a one-shot never makes.
///
/// All methods are const and the object holds no mutable state, so one
/// instance may be shared across any number of threads without locks.
class DerivedDrbg final {
 public:
  /// Longest key || personalization accepted: the per-id reseed message
  /// is assembled in a fixed stack buffer.
  static constexpr std::size_t kMaxMaterial = 128;

  /// \p key is the derivation key (non-empty); \p personalization
  /// domain-separates independent families under the same key. Throws
  /// std::invalid_argument on an empty key or when the two together
  /// exceed kMaxMaterial bytes.
  explicit DerivedDrbg(common::BytesView key,
                       common::BytesView personalization = {});

  /// The first \p n bytes of stream \p id.
  [[nodiscard]] common::Bytes generate(std::uint64_t id, std::size_t n) const;

  /// The first 64-bit value (big-endian) of stream \p id.
  [[nodiscard]] std::uint64_t next_u64(std::uint64_t id) const;

 private:
  /// Writes the first \p n bytes of stream \p id to \p out.
  void fill(std::uint64_t id, std::uint8_t* out, std::size_t n) const;

  /// V0 || 0x00 || key || personalization: the fixed head of
  /// instantiate's first HMAC message.
  common::Bytes prefix_;
  /// SHA-256 midstate over ipad(K0) || prefix_'s full blocks.
  Sha256Midstate instantiate_;
};

/// Returns \p n bytes sampled from std::random_device (wrapped so call
/// sites do not depend on <random> and tests can see a single choke
/// point for entropy).
[[nodiscard]] common::Bytes os_entropy(std::size_t n);

}  // namespace powai::crypto
