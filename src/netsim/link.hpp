#pragma once
/// \file link.hpp
/// Network link model: propagation latency + jitter + serialization
/// delay + random loss. Used by the simulator to delay (or drop) message
/// deliveries between hosts.

#include <cstdint>
#include <optional>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace powai::netsim {

struct LinkModel final {
  /// One-way propagation latency.
  common::Duration base_latency = std::chrono::milliseconds(5);

  /// Uniform jitter added on top: U[0, jitter], bounds inclusive.
  common::Duration jitter = std::chrono::milliseconds(1);

  /// Bytes/second; 0 = infinite (no serialization delay).
  double bandwidth_bytes_per_sec = 0.0;

  /// Independent per-message loss probability in [0, 1].
  double loss_rate = 0.0;

  /// One-way delay for a \p size-byte message, or std::nullopt if the
  /// message is lost. The model must already be valid: validation is an
  /// attach-time concern (Network::set_link / set_default_link call
  /// validate()), never a per-message one — this is the per-packet hot
  /// path of every simulated send.
  [[nodiscard]] std::optional<common::Duration> delay_for(
      std::size_t size, common::Rng& rng) const noexcept;

  /// Validates fields; throws std::invalid_argument on a malformed model
  /// (negative latency/jitter, loss outside [0,1], negative bandwidth).
  /// Called by Network when a model is attached.
  void validate() const;
};

/// A symmetric-latency LAN-ish default used by the experiments: ~15 ms
/// one-way (the calibration that puts the d=1 round trip near the
/// paper's 31 ms; LatencyModel.CalibrationHitsThePapersAnchors in
/// tests/test_sim.cpp checks that anchor).
[[nodiscard]] LinkModel default_experiment_link();

}  // namespace powai::netsim
