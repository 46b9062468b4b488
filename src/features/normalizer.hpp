#pragma once
/// \file normalizer.hpp
/// Feature normalization. DAbR is distance-based, so it is only
/// meaningful on comparable feature scales; both normalizers are fit on
/// training data and then applied to queries.

#include <array>

#include "features/dataset.hpp"
#include "features/feature_vector.hpp"

namespace powai::features {

/// Per-feature affine map x' = (x - lo) / (hi - lo) onto [0, 1]
/// (constant features map to 0.5). Queries outside the training range are
/// clamped to [0, 1] so one wild feature cannot dominate a distance.
class MinMaxNormalizer final {
 public:
  /// Fits bounds from \p data (throws std::invalid_argument if empty).
  void fit(const Dataset& data);

  [[nodiscard]] bool fitted() const { return fitted_; }

  /// Transforms one vector (throws std::logic_error if not fitted).
  [[nodiscard]] FeatureVector transform(const FeatureVector& x) const;

  /// Fits and transforms every row of \p data into a new dataset.
  [[nodiscard]] Dataset fit_transform(const Dataset& data);

  [[nodiscard]] double lo(std::size_t i) const { return lo_[i]; }
  [[nodiscard]] double hi(std::size_t i) const { return hi_[i]; }

 private:
  std::array<double, kFeatureCount> lo_{};
  std::array<double, kFeatureCount> hi_{};
  bool fitted_ = false;
};

/// Per-feature standardization x' = (x - mean) / std (constant features
/// map to 0). No clamping: z-scores legitimately exceed +-1.
class ZScoreNormalizer final {
 public:
  void fit(const Dataset& data);

  [[nodiscard]] bool fitted() const { return fitted_; }
  [[nodiscard]] FeatureVector transform(const FeatureVector& x) const;
  [[nodiscard]] Dataset fit_transform(const Dataset& data);

  [[nodiscard]] double mean(std::size_t i) const { return mean_[i]; }
  [[nodiscard]] double stddev(std::size_t i) const { return std_[i]; }

  /// Reconstructs a fitted normalizer from saved statistics (negative
  /// stddevs throw std::invalid_argument). Used by model persistence.
  [[nodiscard]] static ZScoreNormalizer from_params(
      const std::array<double, kFeatureCount>& means,
      const std::array<double, kFeatureCount>& stddevs);

 private:
  std::array<double, kFeatureCount> mean_{};
  std::array<double, kFeatureCount> std_{};
  bool fitted_ = false;
};

}  // namespace powai::features
