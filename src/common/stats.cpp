#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powai::common {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel combination of moments.
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double n = n1 + n2;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  mean_ += delta * n2 / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs_) sum += x;
  return sum / static_cast<double>(xs_.size());
}

double Samples::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : xs_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs_.size() - 1));
}

double Samples::min() const {
  if (xs_.empty()) throw std::invalid_argument("Samples::min: empty");
  return *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const {
  if (xs_.empty()) throw std::invalid_argument("Samples::max: empty");
  return *std::max_element(xs_.begin(), xs_.end());
}

double Samples::quantile(double q) const {
  if (xs_.empty()) throw std::invalid_argument("Samples::quantile: empty");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("Samples::quantile: q outside [0,1]");
  }
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks (type-7 quantile, the
  // default in R/NumPy, and exactly the textbook median for odd n).
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(std::floor(pos));
  const auto hi_idx = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo_idx);
  return sorted[lo_idx] + frac * (sorted[hi_idx] - sorted[lo_idx]);
}

}  // namespace powai::common
