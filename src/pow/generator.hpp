#pragma once
/// \file generator.hpp
/// The puzzle generation module (Fig. 1, step 4). Issues puzzles with an
/// unpredictable per-request seed (mitigating pre-computation, §II.3) and
/// authenticates every field with an HMAC so the verifier can be
/// stateless.
///
/// Key separation: from one master secret the generator derives an id
/// key (keys the puzzle-id PRF), a seed key (keys the per-id seed
/// streams), and a MAC key (tags puzzles). The verifier only ever needs
/// the MAC key.
///
/// Determinism: issuance is *keyed derivation*, not a chained stream.
/// `issue_for(client_ip, request_key, d)` derives the puzzle id as a
/// keyed PRF of (client_ip, request_key) and the seed as a pure function
/// of (master_secret, puzzle_id) — so the puzzle a given request gets is
/// independent of arrival order, thread interleaving, or batch shape,
/// and two runs of the same workload produce bit-identical puzzles.
/// Re-issuing for the same (client_ip, request_key) returns the same
/// id + seed (idempotent retry semantics; the replay cache still limits
/// redemption to once). Callers without a natural request identity
/// (tools, benches, tests) pass any key unique per puzzle they need,
/// such as a loop index.
///
/// Thread-safe: all entry points may be called from any number of
/// threads with no locks anywhere — the derivation state is immutable
/// after construction and the only mutable member is a relaxed atomic
/// counter.

#include <atomic>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/siphash.hpp"
#include "pow/puzzle.hpp"

namespace powai::pow {

/// Issues authenticated puzzles.
class PuzzleGenerator final {
 public:
  /// \p clock must outlive the generator. \p master_secret is shared with
  /// the Verifier; it must be non-empty.
  PuzzleGenerator(const common::Clock& clock, common::BytesView master_secret);

  /// Issues a puzzle of \p difficulty bound to \p client_ip (textual
  /// form) for the stable request identity \p request_key (typically the
  /// client-chosen request id). Same (client_ip, request_key) → same
  /// puzzle id and seed, in any run, under any scheduling. Thread-safe,
  /// lock-free.
  [[nodiscard]] Puzzle issue_for(const std::string& client_ip,
                                 std::uint64_t request_key,
                                 unsigned difficulty);

  /// The puzzle id `issue_for(client_ip, request_key, …)` would assign —
  /// a keyed 64-bit PRF of the pair, exposed so callers can key other
  /// per-puzzle derivations (e.g. policy randomness streams) off the
  /// same stable identity before the puzzle exists. Thread-safe.
  [[nodiscard]] std::uint64_t derive_puzzle_id(const std::string& client_ip,
                                               std::uint64_t request_key) const;

  /// Hot-path variant of issue_for for callers that already hold the
  /// derived id: \p puzzle_id MUST be `derive_puzzle_id(client_ip, k)`
  /// for the request's identity k — passing anything else breaks the
  /// determinism and idempotency contracts (the id is not re-checked,
  /// to keep the PRF at one evaluation per request). Thread-safe,
  /// lock-free.
  [[nodiscard]] Puzzle issue_with_id(std::uint64_t puzzle_id,
                                     const std::string& client_ip,
                                     unsigned difficulty);

  /// Number of puzzles issued so far (exact once concurrent issuers have
  /// returned).
  [[nodiscard]] std::uint64_t issued_count() const {
    return issued_.load(std::memory_order_relaxed);
  }

  /// Computes the MAC a legitimate puzzle must carry. Exposed so the
  /// Verifier (and tests) share one definition.
  [[nodiscard]] static crypto::Digest compute_auth(
      const crypto::HmacKey& mac_key, const Puzzle& puzzle);

  /// Same MAC from an already-serialized prefix (the MAC input is
  /// prefix || id, fed to the HMAC as two parts — no concatenation
  /// buffer). Lets the verify path reuse one serialization for both
  /// the authenticity check and the solution hash instead of deriving
  /// the prefix twice per submission.
  [[nodiscard]] static crypto::Digest compute_auth(
      const crypto::HmacKey& mac_key, common::BytesView prefix,
      std::uint64_t puzzle_id);

  /// Derives the MAC key from a master secret (same derivation the
  /// generator uses internally; the Verifier calls this too), absorbed
  /// once so every MAC under it skips the key blocks.
  [[nodiscard]] static crypto::HmacKey derive_mac_key(
      common::BytesView master_secret);

 private:
  const common::Clock* clock_;
  crypto::DerivedDrbg seed_streams_;  ///< per-puzzle-id seed derivation
  crypto::SipKey id_key_{};           ///< keys the puzzle-id PRF
  crypto::HmacKey mac_key_;           ///< tags issued puzzles
  std::atomic<std::uint64_t> issued_{0};  ///< puzzles issued (count)
};

}  // namespace powai::pow
