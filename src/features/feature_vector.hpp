#pragma once
/// \file feature_vector.hpp
/// The IP-traffic attribute vector consumed by the reputation models.
///
/// DAbR (Renjan et al., ISI 2018) scores an IP by the Euclidean distance
/// of its attribute vector to previously-seen malicious IPs. The original
/// attributes come from a commercial threat feed; here the schema is a
/// fixed set of transport/application-level statistics that a server-side
/// observer can compute per source IP (see features/synthetic.hpp for the
/// substitution rationale).

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

namespace powai::features {

/// Index of each attribute in a FeatureVector. Order is part of the
/// on-disk CSV format — append only.
enum class Feature : std::size_t {
  kRequestRate = 0,     ///< requests / second from this IP
  kMeanPayloadBytes,    ///< mean request payload size
  kConnDurationMs,      ///< mean connection duration
  kSynRatio,            ///< fraction of handshakes never completed
  kErrorRatio,          ///< fraction of requests ending in 4xx/5xx
  kUniquePorts,         ///< distinct destination ports probed
  kGeoRisk,             ///< [0,1] risk weight of the announced origin
  kBlocklistHits,       ///< hits on public blocklists (count)
  kPathEntropy,         ///< Shannon entropy of requested paths (bits)
  kTtlVariance,         ///< variance of observed IP TTLs (spoofing tell)
};

inline constexpr std::size_t kFeatureCount = 10;

/// Human-readable attribute name ("request_rate", ...).
[[nodiscard]] std::string_view feature_name(Feature f);

/// Fixed-width numeric attribute vector.
class FeatureVector final {
 public:
  FeatureVector() { values_.fill(0.0); }
  explicit FeatureVector(const std::array<double, kFeatureCount>& values)
      : values_(values) {}

  [[nodiscard]] double get(Feature f) const {
    return values_[static_cast<std::size_t>(f)];
  }
  void set(Feature f, double v) { values_[static_cast<std::size_t>(f)] = v; }

  [[nodiscard]] double operator[](std::size_t i) const { return values_[i]; }
  [[nodiscard]] double& operator[](std::size_t i) { return values_[i]; }

  [[nodiscard]] static constexpr std::size_t size() { return kFeatureCount; }

  [[nodiscard]] const std::array<double, kFeatureCount>& values() const {
    return values_;
  }

  /// Euclidean distance to \p other.
  [[nodiscard]] double distance(const FeatureVector& other) const;

  /// Squared Euclidean distance (no sqrt; for hot loops).
  [[nodiscard]] double distance_sq(const FeatureVector& other) const;

  /// "f0,f1,...,f9" with full precision (CSV cell form).
  [[nodiscard]] std::string to_csv() const;

  bool operator==(const FeatureVector&) const = default;

 private:
  std::array<double, kFeatureCount> values_;
};

}  // namespace powai::features
