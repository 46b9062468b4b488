#include "features/normalizer.hpp"

#include <cmath>
#include <stdexcept>

namespace powai::features {

void ZScoreNormalizer::fit(const Dataset& data) {
  if (data.empty()) {
    throw std::invalid_argument("ZScoreNormalizer::fit: empty dataset");
  }
  mean_.fill(0.0);
  std_.fill(0.0);
  const auto n = static_cast<double>(data.size());
  for (const auto& row : data.rows()) {
    for (std::size_t i = 0; i < kFeatureCount; ++i) mean_[i] += row.features[i];
  }
  for (std::size_t i = 0; i < kFeatureCount; ++i) mean_[i] /= n;
  for (const auto& row : data.rows()) {
    for (std::size_t i = 0; i < kFeatureCount; ++i) {
      const double d = row.features[i] - mean_[i];
      std_[i] += d * d;
    }
  }
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    std_[i] = std::sqrt(std_[i] / n);
  }
  fitted_ = true;
}

FeatureVector ZScoreNormalizer::transform(const FeatureVector& x) const {
  if (!fitted_) throw std::logic_error("ZScoreNormalizer: not fitted");
  FeatureVector out;
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    out[i] = std_[i] > 0.0 ? (x[i] - mean_[i]) / std_[i] : 0.0;
  }
  return out;
}

ZScoreNormalizer ZScoreNormalizer::from_params(
    const std::array<double, kFeatureCount>& means,
    const std::array<double, kFeatureCount>& stddevs) {
  for (double s : stddevs) {
    if (s < 0.0) {
      throw std::invalid_argument("ZScoreNormalizer::from_params: stddev < 0");
    }
  }
  ZScoreNormalizer out;
  out.mean_ = means;
  out.std_ = stddevs;
  out.fitted_ = true;
  return out;
}

Dataset ZScoreNormalizer::fit_transform(const Dataset& data) {
  fit(data);
  Dataset out;
  out.reserve(data.size());
  for (const auto& row : data.rows()) {
    out.add({row.ip, transform(row.features), row.malicious});
  }
  return out;
}

}  // namespace powai::features
