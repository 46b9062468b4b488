#include "suite.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "features/synthetic.hpp"

namespace powai::bench {

namespace {

/// Root of the fixed samples (training set and client populations).
constexpr std::uint64_t kPopulationSeed = 0x706f7761692d6265ULL;

}  // namespace

std::unique_ptr<reputation::DabrModel> fit_model() {
  // Rows per class of the training set: the model fit is part of every
  // workload's set-up.
  constexpr std::size_t kTrainPerClass = 4000;
  const features::SyntheticTraceGenerator gen;
  common::Rng rng(kPopulationSeed);
  auto model = std::make_unique<reputation::DabrModel>();
  model->fit(gen.generate(kTrainPerClass, kTrainPerClass, rng));
  return model;
}

std::vector<features::FeatureVector> dealt_features(std::uint64_t seed,
                                                    std::size_t count,
                                                    bool malicious) {
  const features::SyntheticTraceGenerator gen;
  std::vector<features::FeatureVector> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    common::Rng rng =
        common::stream_rng(kPopulationSeed + (malicious ? 1 : 0), i);
    out.push_back(gen.sample(malicious, rng));
  }
  common::Rng order = common::stream_rng(seed, malicious ? 1 : 0);
  std::shuffle(out.begin(), out.end(), order);
  return out;
}

std::vector<features::FeatureVector> population_features(
    std::uint64_t seed, std::size_t clients, std::size_t attacker_every) {
  const std::size_t attackers = (clients + attacker_every - 1) / attacker_every;
  const auto bad = dealt_features(seed, attackers, true);
  const auto good = dealt_features(seed, clients - attackers, false);
  std::vector<features::FeatureVector> out;
  out.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    out.push_back(c % attacker_every == 0 ? bad[c / attacker_every]
                                          : good[c - c / attacker_every - 1]);
  }
  return out;
}

common::Bytes secret_for(std::uint64_t seed) {
  return common::bytes_of("powai-bench-secret-" + std::to_string(seed));
}

std::uint64_t request_key(std::uint64_t client, std::uint64_t request_id) {
  return client * 0x9e3779b97f4a7c15ULL + request_id;
}

std::size_t scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(
                             std::llround(static_cast<double>(n) * scale)));
}

double expected_work(unsigned d) {
  return std::ldexp(1.0, static_cast<int>(d));
}

double quantile_or_zero(const common::Samples& s, double q) {
  return s.empty() ? 0.0 : s.quantile(q);
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double process_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void check(std::vector<std::string>& violations, bool ok,
           const std::string& what) {
  if (!ok) violations.push_back(what);
}

void fill_span_layers(const Totals& totals, double wall_s, std::size_t threads,
                      Layers& layers) {
  const auto at = [&](Layer layer) -> const LayerTotals& {
    return totals[static_cast<std::size_t>(layer)];
  };
  // Mean self time of one span of \p layer, in ns.
  const auto self_ns = [&](Layer layer) {
    return ratio(ticks_to_ns(at(layer).self_ticks),
                 static_cast<double>(at(layer).count));
  };
  layers.decode_ns = self_ns(Layer::kDecode);
  layers.encode_ns = self_ns(Layer::kEncode);
  layers.on_request_self_us = self_ns(Layer::kOnRequest) / 1e3;
  layers.on_request_limited_us = self_ns(Layer::kOnRequestLimited) / 1e3;
  layers.on_submission_served_us = self_ns(Layer::kOnSubmissionServed) / 1e3;
  layers.on_submission_bad_solution_us =
      self_ns(Layer::kOnSubmissionBadSolution) / 1e3;
  layers.on_submission_replay_us = self_ns(Layer::kOnSubmissionReplay) / 1e3;
  layers.score_ns = self_ns(Layer::kScore);
  layers.difficulty_ns = self_ns(Layer::kPolicy);

  // Shares of the pass's thread-time (wall × busy threads). Time outside
  // every layer span — harness glue, threads that finish early — is
  // unattributed; so is the root span, which only groups its children.
  const double thread_ns = wall_s * 1e9 * static_cast<double>(threads);
  double attributed_ns = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (static_cast<Layer>(i) != Layer::kExchange) {
      attributed_ns += ticks_to_ns(totals[i].self_ticks);
    }
  }
  layers.solver_time_share =
      ratio(ticks_to_ns(at(Layer::kSolve).self_ticks), thread_ns);
  layers.unattributed_share = 1.0 - ratio(attributed_ns, thread_ns);
}

}  // namespace powai::bench
