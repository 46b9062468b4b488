#pragma once
/// \file synthetic.hpp
/// Synthetic labeled IP traffic. Substitutes for the proprietary
/// threat-feed attribute data DAbR was trained on: benign and malicious
/// populations are drawn from overlapping per-feature distributions.
/// The `class_overlap` knob moves the malicious
/// distribution toward the benign one; the default is calibrated so a
/// distance-based scorer achieves roughly the 80% accuracy DAbR reports
/// (checked by Dabr.AccuracyNearPublishedEightyPercentAtDefaultOverlap).

#include <cstdint>

#include "common/rng.hpp"
#include "features/dataset.hpp"
#include "features/feature_vector.hpp"
#include "features/ip_address.hpp"

namespace powai::features {

/// Per-class generative profile: feature means and standard deviations.
struct ClassProfile final {
  FeatureVector mean;
  FeatureVector stddev;
};

/// Built-in benign profile (ordinary web clients).
[[nodiscard]] ClassProfile benign_profile();

/// Built-in malicious profile (flooders/scanners) before overlap blending.
[[nodiscard]] ClassProfile malicious_profile();

/// Configuration for the generator.
struct SyntheticConfig final {
  /// In [0, 1): 0 = fully separated classes (a scorer gets ~100%
  /// accuracy), 0.9 = nearly indistinguishable. The default lands the
  /// DAbR scorer near its published 80% accuracy.
  double class_overlap = 0.58;

  /// Fraction of labels flipped after sampling (sensor/feed noise).
  double label_noise = 0.0;

  /// Subnet housing benign clients (one address per client).
  Subnet benign_subnet{IpAddress(10, 0, 0, 0), 8};

  /// Subnet housing malicious clients; a distinct block so examples and
  /// experiments can tell populations apart at a glance.
  Subnet malicious_subnet{IpAddress(203, 0, 0, 0), 8};
};

/// Generates labeled attribute datasets and per-request feature samples.
class SyntheticTraceGenerator final {
 public:
  explicit SyntheticTraceGenerator(SyntheticConfig config = {});

  /// The profiles actually used after overlap blending.
  [[nodiscard]] const ClassProfile& benign() const { return benign_; }
  [[nodiscard]] const ClassProfile& malicious() const { return malicious_; }

  /// Samples one attribute vector of the given class. Values are clamped
  /// to their physical domains (rates >= 0, ratios in [0, 1]).
  [[nodiscard]] FeatureVector sample(bool malicious, common::Rng& rng) const;

  /// Generates a labeled dataset with the given class sizes. IPs are
  /// allocated sequentially from the class subnets; rows are interleaved
  /// (shuffle before splitting if you need randomized order).
  [[nodiscard]] Dataset generate(std::size_t benign_count,
                                 std::size_t malicious_count,
                                 common::Rng& rng) const;

  [[nodiscard]] const SyntheticConfig& config() const { return config_; }

 private:
  SyntheticConfig config_;
  ClassProfile benign_;
  ClassProfile malicious_;
};

}  // namespace powai::features
