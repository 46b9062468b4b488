#pragma once
/// \file adversary.hpp
/// Adversary strategies against the framework, each targeting one of the
/// defenses §II relies on:
///
///   replay       — solve once, resubmit many times (vs the replay cache)
///   forge        — self-issue easy puzzles (vs the issuer MAC)
///   downgrade    — rewrite the difficulty field (vs the MAC again)
///   steal        — submit a victim's solved puzzle from another IP
///                  (vs client binding)
///   precompute   — start solving from guessed seeds before requesting
///                  (vs DRBG seed unpredictability)
///   sybil        — rotate source IPs to dodge per-IP reputation memory
///                  (limits of IP-keyed scoring; partially mitigated)
///
/// Each strategy runs a fixed number of service attempts against a real
/// PowServer and reports how many were actually served.
/// bench/bench_adversary.cpp prints the security table, and
/// tests/test_adversary.cpp checks it.

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "framework/server.hpp"
#include "policy/policy.hpp"
#include "reputation/model.hpp"

namespace powai::sim {

/// Outcome of one adversary strategy.
struct AdversaryReport final {
  std::string strategy;
  std::uint64_t attempts = 0;       ///< service attempts made
  std::uint64_t served = 0;         ///< times the resource was obtained
  std::uint64_t hashes_spent = 0;   ///< total solver work invested
  std::string note;                 ///< one-line interpretation

  [[nodiscard]] double success_rate() const {
    return attempts > 0
               ? static_cast<double>(served) / static_cast<double>(attempts)
               : 0.0;
  }
};

struct AdversaryConfig final {
  std::uint64_t attempts_per_strategy = 25;
  std::uint64_t seed = 99;
  /// Attacker source (inside the malicious block by default).
  std::string attacker_ip = "203.0.0.66";
  /// A benign victim whose solutions the "steal" strategy replays.
  std::string victim_ip = "10.0.0.5";
};

/// Runs every strategy against a fresh PowServer built from \p model and
/// \p pol (model must be fitted). Deterministic given the seed.
[[nodiscard]] std::vector<AdversaryReport> run_adversaries(
    const AdversaryConfig& config, const reputation::IReputationModel& model,
    const policy::IPolicy& pol);

/// Renders reports as a table.
[[nodiscard]] common::Table adversary_table(
    const std::vector<AdversaryReport>& reports);

}  // namespace powai::sim
