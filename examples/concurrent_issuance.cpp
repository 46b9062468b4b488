// Concurrent issuance: the thread-safe PowServer front-end under real
// parallel load. Part 1 issues a whole batch of requests in one
// on_request_batch call; part 2 drives N client threads through the
// full request→solve→submit loop with sim::LoadHarness and shows the
// atomic stats snapshot balancing exactly against the client-side view.
//
// Build & run:   ./build/examples/concurrent_issuance [clients=4]
//                [requests=16] [seed=7]

#include <cstdio>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "framework/server.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"
#include "sim/load_harness.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const auto clients = static_cast<std::size_t>(args.get_u64("clients", 4));
  const auto requests = static_cast<std::size_t>(args.get_u64("requests", 16));
  const std::uint64_t seed = args.get_u64("seed", 7);

  common::Rng rng(seed);
  const features::SyntheticTraceGenerator traffic;
  reputation::DabrModel model;
  model.fit(traffic.generate(400, 400, rng));
  const policy::LinearPolicy policy = policy::LinearPolicy::policy2();

  framework::ServerConfig config;
  config.master_secret = common::bytes_of("concurrent-issuance-secret");
  config.verify_threads = 2;
  framework::PowServer server(common::WallClock::instance(), model, policy,
                              config);

  // --- Part 1: batch issuance --------------------------------------------
  // A front-end drains its socket and hands the server a whole batch;
  // scoring and issuance fan out over the server's pool.
  std::vector<framework::Request> batch;
  for (std::size_t i = 0; i < 8; ++i) {
    framework::Request request;
    request.client_ip = sim::load_client_ip(i);
    request.features = traffic.sample(false, rng);
    request.request_id = i + 1;
    batch.push_back(std::move(request));
  }
  const auto outcomes = server.on_request_batch(batch);
  std::size_t issued = 0;
  for (const auto& outcome : outcomes) {
    if (std::holds_alternative<framework::Challenge>(outcome)) ++issued;
  }
  std::printf("on_request_batch: %zu requests -> %zu challenges issued\n",
              batch.size(), issued);

  // --- Part 2: closed-loop load -------------------------------------------
  std::vector<features::FeatureVector> client_features;
  for (std::size_t i = 0; i < clients; ++i) {
    client_features.push_back(traffic.sample(false, rng));
  }

  sim::LoadHarnessConfig lc;
  lc.client_threads = clients;
  lc.requests_per_client = requests;
  sim::LoadHarness harness(server, lc);
  const sim::LoadReport report = harness.run(client_features);

  std::printf("\n%zu client threads x %zu round trips in %.3f s\n", clients,
              requests, report.wall_s);
  std::printf("  served=%llu rate-limited=%llu other=%llu\n",
              static_cast<unsigned long long>(report.served),
              static_cast<unsigned long long>(report.rate_limited),
              static_cast<unsigned long long>(report.rejected_other));
  std::printf("  issuance: %.0f challenges/s, service: %.0f resources/s\n",
              report.issued_per_s(), report.served_per_s());

  const framework::ServerStats& delta = report.server_delta;
  std::printf("  server delta: requests=%llu issued=%llu served=%llu "
              "(mean difficulty %.2f)\n",
              static_cast<unsigned long long>(delta.requests),
              static_cast<unsigned long long>(delta.challenges_issued),
              static_cast<unsigned long long>(delta.served),
              delta.mean_difficulty());

  const bool balanced = delta.served == report.served &&
                        delta.requests == report.round_trips;
  std::printf("  client and server tallies %s\n",
              balanced ? "balance exactly" : "DISAGREE (bug!)");
  return balanced ? 0 : 1;
}
