#pragma once
/// \file puzzle.hpp
/// The PoW puzzle and its solution (Fig. 1, steps 4-5). A puzzle is
/// "request related data, i.e., timestamp and unique seed (for mitigating
/// pre-computation attacks), and a difficulty value" (§II.3). The client
/// concatenates this data with its IP address into an immutable prefix
/// string, appends a nonce, and searches for a SHA-256 output with `d`
/// leading zero bits (§II.4).
///
/// Deviation from the paper, documented: the paper appends a 32-bit
/// nonce; we use 64 bits so the nonce space cannot be exhausted at the
/// top of the supported difficulty band (2^40 expected attempts).

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace powai::pow {

/// A puzzle as issued by the server. The `auth` tag is an HMAC over all
/// other fields under the issuer's secret: verification is stateless —
/// the server does not remember issued puzzles, it just checks the tag.
struct Puzzle final {
  std::uint64_t puzzle_id = 0;      ///< unique per issue (for replay cache)
  common::Bytes seed;               ///< 32 unpredictable bytes
  std::int64_t issued_at_ms = 0;    ///< server timestamp (for expiry)
  unsigned difficulty = 1;          ///< required leading zero bits
  std::string client_binding;       ///< client IP the puzzle is bound to
  crypto::Digest auth{};            ///< issuer MAC over the fields above

  /// Canonical immutable prefix the solver hashes: every field separated
  /// by '|' so no two distinct puzzles share a prefix.
  [[nodiscard]] common::Bytes prefix_bytes() const;

  /// Bytes covered by the issuer MAC (prefix is a strict subset of it).
  [[nodiscard]] common::Bytes mac_input() const;

  /// Wire encoding (length-prefixed fields, big-endian).
  [[nodiscard]] common::Bytes serialize() const;
  [[nodiscard]] static std::optional<Puzzle> deserialize(common::BytesView data);

  bool operator==(const Puzzle&) const = default;
};

/// A claimed solution.
struct Solution final {
  std::uint64_t puzzle_id = 0;
  std::uint64_t nonce = 0;

  [[nodiscard]] common::Bytes serialize() const;
  [[nodiscard]] static std::optional<Solution> deserialize(common::BytesView data);

  bool operator==(const Solution&) const = default;
};

/// Precomputed hashing context for one puzzle — the hot-path form of
/// the (prefix || nonce) digest. Construction serializes the prefix
/// once, absorbs its full 64-byte blocks into a SHA-256 midstate, and
/// lays out the padded final block(s) once (tail ‖ 8-byte nonce hole ‖
/// 0x80 ‖ zeros ‖ bit length, held inline). After that every probe
/// copies that layout, stores the big-endian nonce into the hole and
/// compresses: no allocation, no re-serialization, no re-padding.
///
/// Immutable after construction and therefore freely shared across
/// threads (the solver's strided workers all read one context).
class PuzzleContext final {
 public:
  explicit PuzzleContext(const Puzzle& puzzle);

  /// The serialized prefix (also the MAC input minus the trailing id) —
  /// cached so callers never re-derive it per use.
  [[nodiscard]] const common::Bytes& prefix() const { return prefix_; }

  [[nodiscard]] std::uint64_t puzzle_id() const { return puzzle_id_; }
  [[nodiscard]] unsigned difficulty() const { return difficulty_; }

  /// SHA-256(prefix || nonce_be64). Allocation-free.
  [[nodiscard]] crypto::Digest digest_for(std::uint64_t nonce) const;

  /// True iff \p nonce solves the puzzle this context was built from.
  /// Tests the chaining words directly; no digest is serialized.
  [[nodiscard]] bool check(std::uint64_t nonce) const;

  /// Checks \p count strided nonces (start, start + stride, ...) in one
  /// call through one crypto::Sha256LaneSweep: the lane kernel is
  /// resolved once per call and each lane group finishes
  /// lane_width() nonces from the shared midstate (16 on AVX-512 and
  /// shani_avx512, 8 on AVX2, 2 interleaved streams on SHA-NI, 1 on
  /// generic and ARMv8-CE).
  /// Returns the index of the FIRST qualifying nonce in probe order, or
  /// \p count when none qualifies — the observable result is
  /// bit-identical to calling check() on each nonce in sequence.
  /// Allocation-free.
  [[nodiscard]] std::size_t check_many(std::uint64_t start,
                                       std::uint64_t stride,
                                       std::size_t count) const;

 private:
  /// Chaining words of SHA-256(prefix || nonce_be64).
  [[nodiscard]] crypto::Sha256State state_for(std::uint64_t nonce) const;

  common::Bytes prefix_;
  crypto::Sha256Midstate midstate_;  ///< over prefix_'s full blocks
  crypto::Sha256FinalBlocks final_;  ///< tail ‖ nonce hole ‖ padding
  std::uint64_t puzzle_id_ = 0;
  unsigned difficulty_ = 1;
};

/// Hash of (puzzle prefix || nonce) — the quantity compared against the
/// difficulty target. One definition shared by solver and verifier.
/// Convenience form: builds a PuzzleContext per call — loops should
/// build the context once and use digest_for().
[[nodiscard]] crypto::Digest solution_digest(const Puzzle& puzzle,
                                             std::uint64_t nonce);

/// True iff \p nonce solves \p puzzle (one-shot; loops should use
/// PuzzleContext::check).
[[nodiscard]] bool is_valid_solution(const Puzzle& puzzle, std::uint64_t nonce);

}  // namespace powai::pow
