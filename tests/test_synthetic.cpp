// Tests for the synthetic trace generator (the data substitution for the
// proprietary threat feed — see src/features/synthetic.hpp).

#include "features/synthetic.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace powai::features {
namespace {

TEST(Profiles, BenignAndMaliciousDifferMarkedly) {
  const ClassProfile benign = benign_profile();
  const ClassProfile malicious = malicious_profile();
  // The raw (pre-overlap) profiles must be strongly separated on the
  // rate/ports/syn features that define flooding behaviour.
  EXPECT_GT(malicious.mean.get(Feature::kRequestRate),
            10.0 * benign.mean.get(Feature::kRequestRate));
  EXPECT_GT(malicious.mean.get(Feature::kSynRatio),
            benign.mean.get(Feature::kSynRatio));
  EXPECT_GT(malicious.mean.get(Feature::kUniquePorts),
            benign.mean.get(Feature::kUniquePorts));
}

TEST(Generator, RejectsBadConfig) {
  SyntheticConfig bad_overlap;
  bad_overlap.class_overlap = 1.0;
  EXPECT_THROW(SyntheticTraceGenerator{bad_overlap}, std::invalid_argument);
  bad_overlap.class_overlap = -0.1;
  EXPECT_THROW(SyntheticTraceGenerator{bad_overlap}, std::invalid_argument);

  SyntheticConfig bad_noise;
  bad_noise.label_noise = 0.6;
  EXPECT_THROW(SyntheticTraceGenerator{bad_noise}, std::invalid_argument);
}

TEST(Generator, OverlapPullsMaliciousTowardBenign) {
  SyntheticConfig none;
  none.class_overlap = 0.0;
  SyntheticConfig heavy;
  heavy.class_overlap = 0.8;
  const SyntheticTraceGenerator g_none(none);
  const SyntheticTraceGenerator g_heavy(heavy);
  const double rate_none = g_none.malicious().mean.get(Feature::kRequestRate);
  const double rate_heavy = g_heavy.malicious().mean.get(Feature::kRequestRate);
  const double rate_benign = g_none.benign().mean.get(Feature::kRequestRate);
  EXPECT_GT(rate_none, rate_heavy);
  EXPECT_GT(rate_heavy, rate_benign);
}

TEST(Generator, ZeroOverlapKeepsRawProfile) {
  SyntheticConfig cfg;
  cfg.class_overlap = 0.0;
  const SyntheticTraceGenerator gen(cfg);
  EXPECT_EQ(gen.malicious().mean, malicious_profile().mean);
}

TEST(Generator, SamplesRespectPhysicalDomains) {
  const SyntheticTraceGenerator gen;
  common::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const FeatureVector v = gen.sample(i % 2 == 0, rng);
    for (std::size_t f = 0; f < kFeatureCount; ++f) {
      EXPECT_GE(v[f], 0.0) << "feature " << f;
    }
    EXPECT_LE(v.get(Feature::kSynRatio), 1.0);
    EXPECT_LE(v.get(Feature::kErrorRatio), 1.0);
    EXPECT_LE(v.get(Feature::kGeoRisk), 1.0);
  }
}

TEST(Generator, SampleMeansTrackProfiles) {
  const SyntheticTraceGenerator gen;
  common::Rng rng(2);
  common::RunningStats benign_rate;
  common::RunningStats malicious_rate;
  for (int i = 0; i < 5000; ++i) {
    benign_rate.add(gen.sample(false, rng).get(Feature::kRequestRate));
    malicious_rate.add(gen.sample(true, rng).get(Feature::kRequestRate));
  }
  EXPECT_NEAR(benign_rate.mean(), gen.benign().mean.get(Feature::kRequestRate),
              0.5);
  // Clamping at zero biases the malicious mean slightly upward of the
  // profile; just require clear separation.
  EXPECT_GT(malicious_rate.mean(), 3.0 * benign_rate.mean());
}

TEST(Generator, GeneratesRequestedClassSizes) {
  const SyntheticTraceGenerator gen;
  common::Rng rng(3);
  const Dataset d = gen.generate(120, 40, rng);
  EXPECT_EQ(d.size(), 160u);
  EXPECT_EQ(d.malicious_count(), 40u);
  EXPECT_EQ(d.benign_count(), 120u);
}

TEST(Generator, AssignsIpsFromClassSubnets) {
  SyntheticConfig cfg;
  const SyntheticTraceGenerator gen(cfg);
  common::Rng rng(4);
  const Dataset d = gen.generate(50, 50, rng);
  for (const auto& row : d.rows()) {
    if (row.malicious) {
      EXPECT_TRUE(cfg.malicious_subnet.contains(row.ip));
    } else {
      EXPECT_TRUE(cfg.benign_subnet.contains(row.ip));
    }
  }
}

TEST(Generator, DeterministicGivenSeed) {
  const SyntheticTraceGenerator gen;
  common::Rng rng1(9);
  common::Rng rng2(9);
  const Dataset a = gen.generate(30, 30, rng1);
  const Dataset b = gen.generate(30, 30, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].features, b[i].features);
    EXPECT_EQ(a[i].ip, b[i].ip);
  }
}

TEST(Generator, LabelNoiseFlipsRoughlyTheConfiguredFraction) {
  SyntheticConfig cfg;
  cfg.label_noise = 0.2;
  const SyntheticTraceGenerator gen(cfg);
  common::Rng rng(10);
  const Dataset d = gen.generate(2000, 2000, rng);
  // With 20% flips, the *labels* in each subnet deviate from the subnet's
  // true class about 20% of the time.
  std::size_t flipped = 0;
  for (const auto& row : d.rows()) {
    const bool true_class = cfg.malicious_subnet.contains(row.ip);
    if (row.malicious != true_class) ++flipped;
  }
  const double rate = static_cast<double>(flipped) / static_cast<double>(d.size());
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(Generator, ThrowsWhenPopulationExceedsSubnet) {
  SyntheticConfig cfg;
  cfg.benign_subnet = Subnet(IpAddress(10, 0, 0, 0), 30);  // 4 hosts
  const SyntheticTraceGenerator gen(cfg);
  common::Rng rng(11);
  EXPECT_THROW((void)gen.generate(5, 1, rng), std::invalid_argument);
}

}  // namespace
}  // namespace powai::features
