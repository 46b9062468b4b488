#pragma once
/// \file verifier.hpp
/// The puzzle verification module (Fig. 1, step 5): a "light weight block
/// used to verify the client's solution" (§II.5). Verification is O(1):
/// one HMAC (authenticity), one SHA-256 (solution), a timestamp window
/// check (expiry), and a replay-cache membership test.

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "crypto/hmac.hpp"
#include "pow/puzzle.hpp"
#include "pow/replay_cache.hpp"

namespace powai::pow {

/// Verifier policy knobs.
struct VerifierConfig final {
  /// Solutions arriving more than this after issuance are rejected. Must
  /// cover the worst-case solve time of the hardest puzzle the server
  /// issues, plus slack.
  common::Duration ttl = std::chrono::seconds(120);

  /// Tolerated clock skew for puzzles that appear to come from the
  /// future (only relevant once issuance and verification run on
  /// different machines).
  common::Duration future_skew = std::chrono::seconds(5);

  /// Redeemed-puzzle memory (FIFO per shard). Must exceed the number of
  /// puzzles the server can issue within one ttl window — with headroom
  /// (~2x) when replay_shards > 1: the budget is split per shard, and a
  /// statistically hot shard evicts before the global budget is reached,
  /// which would let an early-evicted solution be redeemed twice.
  std::size_t replay_capacity = 1 << 20;

  /// Lock stripes for the replay cache (rounded up to a power of two).
  /// 1 gives the classic single-FIFO semantics (eviction exactly at
  /// replay_capacity insertions); higher values trade strict global
  /// FIFO eviction for concurrent redemption.
  std::size_t replay_shards = 16;
};

/// Stateful solution verifier (replay cache); share one instance per
/// issuing generator.
///
/// Thread-safe: every member is immutable after construction except the
/// replay cache, which is internally shard-striped, so any number of
/// threads may call verify() concurrently (that is what BatchVerifier
/// does). A redeemed puzzle is accepted by exactly one of them.
class Verifier final {
 public:
  /// \p clock must outlive the verifier. \p master_secret must equal the
  /// generator's.
  Verifier(const common::Clock& clock, common::BytesView master_secret,
           VerifierConfig config = {});

  /// Full verification of \p solution against \p puzzle, optionally
  /// rebinding to the observed client IP (pass empty to skip the
  /// binding check, e.g. behind a NAT-rewriting proxy).
  ///
  /// Error codes: kInvalidArgument (MAC/bind/id mismatch), kExpired,
  /// kBadSolution, kReplay.
  ///
  /// Serializes the puzzle prefix exactly once per call: the same bytes
  /// feed the MAC authenticity check (under the cached key) and
  /// the solution digest (via a PuzzleContext midstate).
  [[nodiscard]] common::Status verify(const Puzzle& puzzle,
                                      const Solution& solution,
                                      const std::string& observed_ip = {});

  /// Staged API for batch callers (BatchVerifier): verify() is exactly
  /// precheck() → solution digest → finalize(), split so a batch can
  /// compute all its digests in one Sha256::hash_many multi-lane sweep
  /// between the two stages.
  ///
  /// Stage 1 — everything *before* the solution hash: id match, MAC
  /// authenticity over \p prefix (which must be puzzle.prefix_bytes();
  /// pass the copy you already hold), client binding, expiry window.
  /// Const and lock-free.
  [[nodiscard]] common::Status precheck(const Puzzle& puzzle,
                                        const Solution& solution,
                                        const std::string& observed_ip,
                                        common::BytesView prefix) const;

  /// Stage 2 — the work itself plus single redemption, given the
  /// already-computed digest of (prefix || nonce). Touches the replay
  /// cache; thread-safe.
  [[nodiscard]] common::Status finalize(const Puzzle& puzzle,
                                        const crypto::Digest& digest);

  /// The cheap id-mismatch guard (also the first thing precheck does),
  /// exposed so callers can reject a mismatched submission before
  /// paying for the prefix serialization the other stages need.
  [[nodiscard]] static common::Status check_id(const Puzzle& puzzle,
                                               const Solution& solution);

  /// Number of puzzles currently remembered as redeemed.
  [[nodiscard]] std::size_t replay_entries() const { return redeemed_.size(); }

  /// Approximate resident footprint of the replay memory, in bytes
  /// (diagnostic — feeds the load benches' bytes/client accounting).
  [[nodiscard]] std::size_t replay_memory_bytes() const {
    return redeemed_.memory_bytes();
  }

  [[nodiscard]] const VerifierConfig& config() const { return config_; }

 private:
  const common::Clock* clock_;
  crypto::HmacKey mac_key_;
  VerifierConfig config_;
  ShardedReplayCache redeemed_;
};

}  // namespace powai::pow
