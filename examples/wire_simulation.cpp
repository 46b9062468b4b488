// The full protocol as bytes over a simulated WAN: a server endpoint and
// a handful of wire clients exchanging encoded Request / Challenge /
// Submission / Response messages across links with latency, jitter, and
// loss. Demonstrates that the framework layers cleanly over an unreliable
// transport (drops simply surface as unanswered requests).
//
// Usage:   ./build/examples/wire_simulation [clients=6] [loss=0.05]

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "framework/transport.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const auto n_clients = static_cast<std::size_t>(args.get_u64("clients", 6));
  const double loss = args.get_f64("loss", 0.05);

  // Simulated world: event loop + network with a lossy wide-area link.
  netsim::EventLoop loop;
  common::Rng net_rng(17);
  netsim::Network network(loop, net_rng);
  netsim::LinkModel wan;
  wan.base_latency = std::chrono::milliseconds(40);
  wan.jitter = std::chrono::milliseconds(8);
  wan.loss_rate = loss;
  network.set_default_link(wan);

  // Server side.
  common::Rng rng(3);
  const features::SyntheticTraceGenerator traffic;
  reputation::DabrModel model;
  model.fit(traffic.generate(400, 400, rng));
  const policy::LinearPolicy policy = policy::LinearPolicy::policy1();
  framework::ServerConfig cfg;
  cfg.master_secret = common::bytes_of("wire-demo-secret");
  framework::PowServer server(loop.clock(), model, policy, cfg);
  framework::ServerEndpoint endpoint(network, "198.51.100.250", server);

  // Clients: half benign, half suspicious traffic patterns, one pool per
  // subnet (benign 10.0.0.x, suspicious 203.0.0.x). Client i is member
  // i / 2 of its subnet's pool.
  const std::size_t per_subnet = std::max<std::size_t>(1, (n_clients + 1) / 2);
  framework::WireClientPool benign(loop, network, "10.0.0.1", per_subnet,
                                   "198.51.100.250");
  framework::WireClientPool suspicious(loop, network, "203.0.0.1", per_subnet,
                                       "198.51.100.250");
  int served = 0;
  int answered = 0;
  const auto report = [&](framework::WireClientPool& pool, bool malicious) {
    pool.set_response_handler([&, malicious](std::size_t c,
                                             const framework::Response& r,
                                             common::Duration d) {
      ++answered;
      if (r.status == common::ErrorCode::kOk) ++served;
      std::printf("%-12s %-10s latency %7.1f ms  status %s\n",
                  pool.ip_of(c).c_str(), malicious ? "malicious" : "benign",
                  common::to_millis_f(d),
                  std::string(common::error_code_name(r.status)).c_str());
    });
  };
  report(benign, false);
  report(suspicious, true);
  for (std::size_t i = 0; i < n_clients; ++i) {
    const bool malicious = i % 2 == 1;
    framework::WireClientPool& pool = malicious ? suspicious : benign;
    const std::size_t c = i / 2;
    const auto features = traffic.sample(malicious, rng);
    if (pool.send_request(c, "/resource", features) == 0) {
      std::printf("%-12s %-10s request dropped on the wire\n",
                  pool.ip_of(c).c_str(), malicious ? "malicious" : "benign");
    }
  }

  loop.run();

  std::printf("\n%d/%zu answered, %d served; wire: %llu messages, %llu dropped, "
              "%llu bytes\n",
              answered, n_clients, served,
              static_cast<unsigned long long>(network.messages_sent()),
              static_cast<unsigned long long>(network.messages_dropped()),
              static_cast<unsigned long long>(network.bytes_sent()));
  std::printf("(drops surface as missing responses — retries are the "
              "client's job, as over a real network)\n");
  return 0;
}
