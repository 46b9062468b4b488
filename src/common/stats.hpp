#pragma once
/// \file stats.hpp
/// Statistics used by the evaluation harness: Welford running moments,
/// and exact sample-based quantiles (the paper reports *medians* of 30
/// trials). Bounded-memory latency quantiles live in
/// framework::SojournHistogram.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace powai::common {

/// Numerically-stable running mean/variance (Welford). O(1) memory;
/// cannot produce quantiles — pair with `Samples` when medians matter.
class RunningStats final {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores every sample; gives exact order statistics. Intended for the
/// experiment scale in this repo (tens to tens of thousands of samples).
class Samples final {
 public:
  void add(double x) { xs_.push_back(x); }
  void reserve(std::size_t n) { xs_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Exact quantile with linear interpolation between order statistics,
  /// q in [0, 1]. Throws std::invalid_argument on empty data or bad q.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  [[nodiscard]] const std::vector<double>& values() const { return xs_; }

 private:
  std::vector<double> xs_;
};

}  // namespace powai::common
