// Tests for running statistics and exact quantiles.

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace powai::common {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Samples, MedianOddCount) {
  Samples s;
  for (double x : {5.0, 1.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Samples, MedianEvenCountInterpolates) {
  Samples s;
  for (double x : {1.0, 2.0, 3.0, 10.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Samples, QuantileEndpoints) {
  Samples s;
  for (double x : {4.0, 8.0, 15.0, 16.0, 23.0, 42.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 42.0);
}

TEST(Samples, QuantileThrowsOnEmptyOrBadQ) {
  Samples s;
  EXPECT_THROW((void)s.quantile(0.5), std::invalid_argument);
  s.add(1.0);
  EXPECT_THROW((void)s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.quantile(1.1), std::invalid_argument);
}

TEST(Samples, MedianOfThirtyTrialsMatchesSortedMiddle) {
  // Mirror of the paper's reporting: median of 30 samples = average of
  // the 15th and 16th order statistics.
  Samples s;
  for (int i = 30; i >= 1; --i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.median(), 15.5);
}

TEST(Samples, MeanAndStddev) {
  Samples s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Samples, MinMaxThrowOnEmpty) {
  Samples s;
  EXPECT_THROW((void)s.min(), std::invalid_argument);
  EXPECT_THROW((void)s.max(), std::invalid_argument);
}

TEST(SamplesVsRunningStats, AgreeOnMoments) {
  Rng rng(9);
  Samples samples;
  RunningStats running;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.exponential(0.5);
    samples.add(x);
    running.add(x);
  }
  EXPECT_NEAR(samples.mean(), running.mean(), 1e-9);
  EXPECT_NEAR(samples.stddev(), running.stddev(), 1e-9);
}

}  // namespace
}  // namespace powai::common
