// Tests for feature vectors, datasets, and normalizers.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "features/dataset.hpp"
#include "features/feature_vector.hpp"
#include "features/normalizer.hpp"

namespace powai::features {
namespace {

FeatureVector vec(double fill) {
  FeatureVector v;
  for (std::size_t i = 0; i < kFeatureCount; ++i) v[i] = fill;
  return v;
}

TEST(FeatureVector, DefaultsToZero) {
  const FeatureVector v;
  for (std::size_t i = 0; i < kFeatureCount; ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(FeatureVector, GetSetByEnum) {
  FeatureVector v;
  v.set(Feature::kSynRatio, 0.25);
  EXPECT_DOUBLE_EQ(v.get(Feature::kSynRatio), 0.25);
  EXPECT_DOUBLE_EQ(v[static_cast<std::size_t>(Feature::kSynRatio)], 0.25);
}

TEST(FeatureVector, DistanceIsEuclidean) {
  FeatureVector a;
  FeatureVector b;
  a[0] = 3.0;
  b[1] = 4.0;
  EXPECT_DOUBLE_EQ(a.distance(b), 5.0);
  EXPECT_DOUBLE_EQ(a.distance_sq(b), 25.0);
}

TEST(FeatureVector, DistanceToSelfIsZero) {
  const FeatureVector v = vec(7.5);
  EXPECT_DOUBLE_EQ(v.distance(v), 0.0);
}

TEST(FeatureVector, DistanceIsSymmetric) {
  FeatureVector a = vec(1.0);
  FeatureVector b = vec(2.0);
  a[3] = -4.0;
  EXPECT_DOUBLE_EQ(a.distance(b), b.distance(a));
}

TEST(FeatureNames, AllDistinct) {
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    for (std::size_t j = i + 1; j < kFeatureCount; ++j) {
      EXPECT_NE(feature_name(static_cast<Feature>(i)),
                feature_name(static_cast<Feature>(j)));
    }
    EXPECT_NE(feature_name(static_cast<Feature>(i)), "unknown");
  }
}

Dataset tiny_dataset() {
  Dataset d;
  LabeledExample benign;
  benign.ip = IpAddress(10, 0, 0, 1);
  benign.features = vec(1.0);
  benign.malicious = false;
  LabeledExample bad;
  bad.ip = IpAddress(203, 0, 0, 1);
  bad.features = vec(9.0);
  bad.malicious = true;
  d.add(benign);
  d.add(bad);
  return d;
}

TEST(Dataset, ClassCounts) {
  const Dataset d = tiny_dataset();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.malicious_count(), 1u);
  EXPECT_EQ(d.benign_count(), 1u);
}

TEST(Dataset, CsvRoundTrip) {
  const Dataset d = tiny_dataset();
  const Dataset restored = Dataset::from_csv(d.to_csv());
  ASSERT_EQ(restored.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(restored[i].ip, d[i].ip);
    EXPECT_EQ(restored[i].malicious, d[i].malicious);
    EXPECT_EQ(restored[i].features, d[i].features);
  }
}

TEST(Dataset, FromCsvRejectsBadRows) {
  EXPECT_THROW(Dataset::from_csv("1.2.3.4,1,2\n"), std::invalid_argument);
  EXPECT_THROW(
      Dataset::from_csv("notanip,0,0,0,0,0,0,0,0,0,0,1\n"),
      std::invalid_argument);
  EXPECT_THROW(
      Dataset::from_csv("1.2.3.4,0,0,0,x,0,0,0,0,0,0,1\n"),
      std::invalid_argument);
  EXPECT_THROW(
      Dataset::from_csv("1.2.3.4,0,0,0,0,0,0,0,0,0,0,2\n"),
      std::invalid_argument);
}

TEST(Dataset, FromCsvSkipsHeaderAndBlankLines) {
  const std::string csv =
      "ip,request_rate,mean_payload_bytes,conn_duration_ms,syn_ratio,"
      "error_ratio,unique_ports,geo_risk,blocklist_hits,path_entropy,"
      "ttl_variance,malicious\n"
      "\n"
      "1.2.3.4,1,2,3,0.1,0.2,5,0.3,0,2.5,1.0,1\n";
  const Dataset d = Dataset::from_csv(csv);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(d[0].malicious);
  EXPECT_DOUBLE_EQ(d[0].features.get(Feature::kRequestRate), 1.0);
}

TEST(Dataset, SplitPreservesRowsAndOrder) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    LabeledExample e;
    e.ip = IpAddress(10, 0, 0, static_cast<std::uint8_t>(i));
    e.features = vec(static_cast<double>(i));
    d.add(e);
  }
  const auto [train, test] = d.split(0.7);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(test.size(), 3u);
  EXPECT_EQ(train[0].ip, d[0].ip);
  EXPECT_EQ(test[0].ip, d[7].ip);
}

TEST(Dataset, SplitRejectsDegenerateFractions) {
  const Dataset d = tiny_dataset();
  EXPECT_THROW((void)d.split(0.0), std::invalid_argument);
  EXPECT_THROW((void)d.split(1.0), std::invalid_argument);
}

TEST(Dataset, ShuffleKeepsMultiset) {
  Dataset d;
  for (int i = 0; i < 50; ++i) {
    LabeledExample e;
    e.ip = IpAddress(10, 0, 0, static_cast<std::uint8_t>(i));
    e.malicious = (i % 3 == 0);
    d.add(e);
  }
  const std::size_t malicious_before = d.malicious_count();
  common::Rng rng(5);
  d.shuffle(rng);
  EXPECT_EQ(d.size(), 50u);
  EXPECT_EQ(d.malicious_count(), malicious_before);
}

TEST(Dataset, MeanAndClassMean) {
  const Dataset d = tiny_dataset();
  EXPECT_DOUBLE_EQ(d.mean()[0], 5.0);
  EXPECT_DOUBLE_EQ(d.class_mean(true)[0], 9.0);
  EXPECT_DOUBLE_EQ(d.class_mean(false)[0], 1.0);
}

TEST(ZScoreNormalizer, StandardizesMoments) {
  common::Rng rng(3);
  Dataset d;
  for (int i = 0; i < 1000; ++i) {
    LabeledExample e;
    for (std::size_t f = 0; f < kFeatureCount; ++f) {
      e.features[f] = rng.normal(50.0, 10.0);
    }
    d.add(e);
  }
  ZScoreNormalizer norm;
  const Dataset normalized = norm.fit_transform(d);
  // Transformed data should have ~zero mean and ~unit spread.
  const FeatureVector m = normalized.mean();
  for (std::size_t f = 0; f < kFeatureCount; ++f) {
    EXPECT_NEAR(m[f], 0.0, 1e-9);
  }
  EXPECT_NEAR(norm.mean(0), 50.0, 1.5);
  EXPECT_NEAR(norm.stddev(0), 10.0, 1.0);
}

TEST(ZScoreNormalizer, ConstantFeatureMapsToZero) {
  Dataset d;
  for (int i = 0; i < 3; ++i) {
    LabeledExample e;
    e.features = vec(7.0);
    d.add(e);
  }
  ZScoreNormalizer norm;
  norm.fit(d);
  EXPECT_DOUBLE_EQ(norm.transform(vec(7.0))[0], 0.0);
  EXPECT_DOUBLE_EQ(norm.transform(vec(100.0))[0], 0.0);
}

}  // namespace
}  // namespace powai::features
