// Tests for the reputation model family: DAbR, kNN, logistic regression,
// naive Bayes. Each model is exercised through the common interface plus
// its own specifics; a parameterized suite pins the shared contract.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "reputation/dabr.hpp"
#include "reputation/evaluator.hpp"
#include "reputation/knn.hpp"
#include "reputation/logistic.hpp"
#include "reputation/naive_bayes.hpp"

namespace powai::reputation {
namespace {

using features::Dataset;
using features::FeatureVector;
using features::SyntheticConfig;
using features::SyntheticTraceGenerator;

Dataset make_data(std::size_t benign, std::size_t malicious,
                  double overlap = 0.58, std::uint64_t seed = 1) {
  SyntheticConfig cfg;
  cfg.class_overlap = overlap;
  const SyntheticTraceGenerator gen(cfg);
  common::Rng rng(seed);
  return gen.generate(benign, malicious, rng);
}

// ---------------------------------------------------------------------------
// Shared contract, parameterized over model factories.
// ---------------------------------------------------------------------------

using ModelFactory = std::function<std::unique_ptr<IReputationModel>()>;

struct ModelCase {
  const char* name;
  ModelFactory make;

  // gtest would otherwise print the pointer and the std::function's bytes,
  // which put a load address into every discovered CTest name.
  friend void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }
};

class ModelContractTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelContractTest, ScoreThrowsBeforeFit) {
  const auto model = GetParam().make();
  EXPECT_FALSE(model->fitted());
  EXPECT_THROW((void)model->score(FeatureVector{}), std::logic_error);
}

TEST_P(ModelContractTest, FitRequiresBothClasses) {
  const auto model = GetParam().make();
  SyntheticTraceGenerator gen;
  common::Rng rng(2);
  Dataset only_benign = gen.generate(20, 0, rng);
  EXPECT_THROW(model->fit(only_benign), std::invalid_argument);
  Dataset only_malicious = gen.generate(0, 20, rng);
  EXPECT_THROW(model->fit(only_malicious), std::invalid_argument);
}

TEST_P(ModelContractTest, ScoresStayInRange) {
  const auto model = GetParam().make();
  model->fit(make_data(200, 200));
  SyntheticTraceGenerator gen;
  common::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double s = model->score(gen.sample(i % 2 == 0, rng));
    EXPECT_GE(s, kMinScore);
    EXPECT_LE(s, kMaxScore);
  }
}

TEST_P(ModelContractTest, SeparatesWellSeparatedClasses) {
  // With zero overlap any sane model should be near-perfect.
  const auto model = GetParam().make();
  model->fit(make_data(300, 300, /*overlap=*/0.0));
  const Dataset test = make_data(200, 200, /*overlap=*/0.0, /*seed=*/99);
  const EvaluationReport report = evaluate(*model, test);
  EXPECT_GT(report.accuracy, 0.95) << GetParam().name << ": "
                                   << report.to_string();
  EXPECT_GT(report.roc_auc, 0.98);
}

TEST_P(ModelContractTest, MaliciousScoreHigherOnAverage) {
  const auto model = GetParam().make();
  model->fit(make_data(300, 300));
  SyntheticTraceGenerator gen;
  common::Rng rng(7);
  double benign_sum = 0.0;
  double malicious_sum = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    benign_sum += model->score(gen.sample(false, rng));
    malicious_sum += model->score(gen.sample(true, rng));
  }
  EXPECT_GT(malicious_sum / n, benign_sum / n + 1.0) << GetParam().name;
}

TEST_P(ModelContractTest, EpsilonIsPositiveAndModest) {
  const auto model = GetParam().make();
  model->fit(make_data(300, 300));
  EXPECT_GT(model->error_epsilon(), 0.0);
  // ε is a score-spread: it cannot exceed half the scale in practice.
  EXPECT_LT(model->error_epsilon(), 5.0);
  EXPECT_TRUE(model->fitted());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelContractTest,
    ::testing::Values(
        ModelCase{"dabr", [] { return std::make_unique<DabrModel>(); }},
        ModelCase{"knn", [] { return std::make_unique<KnnModel>(); }},
        ModelCase{"logistic", [] { return std::make_unique<LogisticModel>(); }},
        ModelCase{"naive_bayes",
                  [] { return std::make_unique<NaiveBayesModel>(); }}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// DAbR specifics.
// ---------------------------------------------------------------------------

TEST(Dabr, AccuracyNearPublishedEightyPercentAtDefaultOverlap) {
  // The calibration target of the data substitution (DESIGN.md §2): DAbR
  // reports 80% accuracy; our synthetic overlap default should land the
  // from-scratch DAbR in that neighbourhood.
  DabrModel model;
  model.fit(make_data(1500, 1500));
  const Dataset test = make_data(500, 500, 0.58, /*seed=*/1234);
  const EvaluationReport report = evaluate(model, test);
  EXPECT_GT(report.accuracy, 0.70) << report.to_string();
  EXPECT_LT(report.accuracy, 0.92) << report.to_string();
}

TEST(Dabr, ScoreDecreasesWithCentroidDistance) {
  DabrModel model;
  model.fit(make_data(300, 300));
  SyntheticTraceGenerator gen;
  common::Rng rng(5);
  // Malicious samples sit closer to the malicious centroid.
  const FeatureVector near = gen.sample(true, rng);
  const FeatureVector far = gen.sample(false, rng);
  if (model.centroid_distance(near) < model.centroid_distance(far)) {
    EXPECT_GE(model.score(near), model.score(far));
  }
}

TEST(Dabr, NameIsStable) {
  DabrModel model;
  EXPECT_EQ(model.name(), "dabr");
}

// ---------------------------------------------------------------------------
// kNN specifics.
// ---------------------------------------------------------------------------

TEST(Knn, RejectsZeroK) { EXPECT_THROW(KnnModel{0}, std::invalid_argument); }

TEST(Knn, ExactTrainingPointGetsItsClassScore) {
  // k=1 on a clean dataset: querying a training point returns its label's
  // extreme score.
  KnnModel model(1);
  const Dataset train = make_data(50, 50, /*overlap=*/0.0);
  model.fit(train);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto& row = train[i];
    const double s = model.score(row.features);
    if (row.malicious) {
      EXPECT_GT(s, 9.0);
    } else {
      EXPECT_LT(s, 1.0);
    }
  }
}

TEST(Knn, LargerKSmoothsScores) {
  const Dataset train = make_data(200, 200);
  KnnModel k1(1);
  KnnModel k51(51);
  k1.fit(train);
  k51.fit(train);
  // With k = 1 scores are all-or-nothing; with k = 51 intermediate values
  // appear. Check the variance ordering over a probe set.
  SyntheticTraceGenerator gen;
  common::Rng rng(6);
  double var1 = 0.0;
  double var51 = 0.0;
  const int n = 200;
  double mean1 = 0.0;
  double mean51 = 0.0;
  std::vector<double> s1;
  std::vector<double> s51;
  for (int i = 0; i < n; ++i) {
    const FeatureVector x = gen.sample(i % 2 == 0, rng);
    s1.push_back(k1.score(x));
    s51.push_back(k51.score(x));
  }
  for (double v : s1) mean1 += v / n;
  for (double v : s51) mean51 += v / n;
  for (double v : s1) var1 += (v - mean1) * (v - mean1) / n;
  for (double v : s51) var51 += (v - mean51) * (v - mean51) / n;
  EXPECT_GT(var1, var51);
}

// ---------------------------------------------------------------------------
// Logistic specifics.
// ---------------------------------------------------------------------------

TEST(Logistic, RejectsBadHyperparameters) {
  LogisticConfig bad;
  bad.learning_rate = 0.0;
  EXPECT_THROW(LogisticModel{bad}, std::invalid_argument);
  bad = {};
  bad.epochs = 0;
  EXPECT_THROW(LogisticModel{bad}, std::invalid_argument);
  bad = {};
  bad.batch_size = 0;
  EXPECT_THROW(LogisticModel{bad}, std::invalid_argument);
  bad = {};
  bad.l2 = -1.0;
  EXPECT_THROW(LogisticModel{bad}, std::invalid_argument);
}

TEST(Logistic, TrainingReducesLogLoss) {
  const Dataset train = make_data(400, 400);
  LogisticConfig quick;
  quick.epochs = 1;
  LogisticConfig full;
  full.epochs = 200;
  LogisticModel m_quick(quick);
  LogisticModel m_full(full);
  m_quick.fit(train);
  m_full.fit(train);
  EXPECT_LT(m_full.log_loss(train), m_quick.log_loss(train));
}

TEST(Logistic, DeterministicGivenSeed) {
  const Dataset train = make_data(200, 200);
  LogisticModel a;
  LogisticModel b;
  a.fit(train);
  b.fit(train);
  SyntheticTraceGenerator gen;
  common::Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const FeatureVector x = gen.sample(i % 2 == 0, rng);
    EXPECT_DOUBLE_EQ(a.score(x), b.score(x));
  }
}

TEST(Logistic, ProbaMatchesScoreScale) {
  LogisticModel model;
  model.fit(make_data(200, 200));
  SyntheticTraceGenerator gen;
  common::Rng rng(9);
  const FeatureVector x = gen.sample(true, rng);
  EXPECT_NEAR(model.score(x), 10.0 * model.predict_proba(x), 1e-9);
}

// ---------------------------------------------------------------------------
// Naive Bayes specifics.
// ---------------------------------------------------------------------------

TEST(NaiveBayes, PosteriorIsProbability) {
  NaiveBayesModel model;
  model.fit(make_data(300, 300));
  SyntheticTraceGenerator gen;
  common::Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    const double p = model.posterior(gen.sample(i % 2 == 0, rng));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(NaiveBayes, PriorsReflectClassImbalance) {
  // With a 9:1 benign-heavy prior and an ambiguous feature vector the
  // posterior should lean benign more than under a 1:1 prior.
  NaiveBayesModel balanced;
  balanced.fit(make_data(300, 300, /*overlap=*/0.8, /*seed=*/21));
  NaiveBayesModel skewed;
  skewed.fit(make_data(540, 60, /*overlap=*/0.8, /*seed=*/21));
  // Probe with benign-profile samples; the skewed model should emit lower
  // malicious posteriors on average.
  SyntheticConfig cfg;
  cfg.class_overlap = 0.8;
  SyntheticTraceGenerator gen(cfg);
  common::Rng rng(22);
  double balanced_sum = 0.0;
  double skewed_sum = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const FeatureVector x = gen.sample(false, rng);
    balanced_sum += balanced.posterior(x);
    skewed_sum += skewed.posterior(x);
  }
  EXPECT_LT(skewed_sum / n, balanced_sum / n);
}

// ---------------------------------------------------------------------------
// Model-comparison sanity (the bench reproduces this as a table).
// ---------------------------------------------------------------------------

TEST(ModelComparison, AllModelsBeatCoinFlipAtDefaultOverlap) {
  const Dataset train = make_data(600, 600);
  const Dataset test = make_data(300, 300, 0.58, /*seed=*/77);
  for (const auto& factory :
       {ModelFactory{[] { return std::make_unique<DabrModel>(); }},
        ModelFactory{[] { return std::make_unique<KnnModel>(); }},
        ModelFactory{[] { return std::make_unique<LogisticModel>(); }},
        ModelFactory{[] { return std::make_unique<NaiveBayesModel>(); }}}) {
    const auto model = factory();
    model->fit(train);
    const EvaluationReport report = evaluate(*model, test);
    EXPECT_GT(report.accuracy, 0.6)
        << model->name() << ": " << report.to_string();
    EXPECT_GT(report.roc_auc, 0.65)
        << model->name() << ": " << report.to_string();
  }
}

}  // namespace
}  // namespace powai::reputation
