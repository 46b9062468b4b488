// The asynchronous transport front end, end to end: wire clients flood
// a server whose endpoint enqueues into a small bounded RequestQueue; a
// paused drain lets the burst hit the backpressure limit so the
// overflow gets explicit kUnavailable answers; then the AsyncFrontEnd
// drains the backlog in adaptive batches onto the server's thread pool
// and every surviving exchange completes. Prints the message ledger —
// every request is answered exactly once, served or refused, never
// silently dropped. Exits nonzero if a request goes unanswered, or if
// the burst outnumbered the queue and nothing was refused.
//
// Usage: ./build/examples/async_front_end [clients=12] [queue=4]
//        [max_batch=8]

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "framework/async_front_end.hpp"
#include "framework/transport.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const auto n_clients = static_cast<std::size_t>(args.get_u64("clients", 12));
  const auto queue_cap = static_cast<std::size_t>(args.get_u64("queue", 4));
  const auto max_batch = static_cast<std::size_t>(args.get_u64("max_batch", 8));

  netsim::EventLoop loop;
  common::Rng net_rng(11);
  netsim::Network network(loop, net_rng);
  // Zero jitter: the whole burst lands at one simulated instant, so the
  // queue bound and the adaptive batching actually show in the output.
  netsim::LinkModel link;
  link.base_latency = std::chrono::milliseconds(15);
  link.jitter = common::Duration::zero();
  network.set_default_link(link);

  common::Rng rng(3);
  const features::SyntheticTraceGenerator traffic;
  reputation::DabrModel model;
  model.fit(traffic.generate(300, 300, rng));
  const policy::LinearPolicy policy = policy::LinearPolicy::policy1();

  framework::ServerConfig cfg;
  cfg.master_secret = common::bytes_of("async-demo-secret");
  framework::PowServer server(loop.clock(), model, policy, cfg);

  // Paused: the burst lands before anything drains, so the queue bound
  // is actually exercised instead of racing the drain thread.
  framework::AsyncFrontEndConfig fc;
  fc.queue_capacity = queue_cap;
  fc.max_batch = max_batch;
  fc.start_paused = true;
  const char* host = "198.51.100.250";
  framework::AsyncFrontEnd front_end(loop, network, host, server, fc);
  framework::ServerEndpoint endpoint(network, host, server, front_end);

  framework::WireClientPool clients(loop, network, "10.0.0.1",
                                    std::max<std::size_t>(1, n_clients), host);
  int served = 0;
  int overloaded = 0;
  int answered = 0;
  clients.set_response_handler([&](std::size_t c, const framework::Response& r,
                                   common::Duration d) {
    ++answered;
    if (r.status == common::ErrorCode::kOk) ++served;
    if (r.status == common::ErrorCode::kUnavailable) ++overloaded;
    std::printf("%-12s %-12s latency %7.1f ms\n", clients.ip_of(c).c_str(),
                std::string(common::error_code_name(r.status)).c_str(),
                common::to_millis_f(d));
  });
  for (std::size_t c = 0; c < n_clients; ++c) {
    clients.send_request(c, "/resource", traffic.sample(false, rng));
  }

  // Deliver the burst while the drain is still paused: the queue fills
  // and the overflow gets its kUnavailable answers. Then run_until_idle
  // starts the drain and pumps until the wire, queue, and in-flight
  // batches are all empty.
  std::size_t events = loop.run();
  events += front_end.run_until_idle();

  const framework::FrontEndStats fs = front_end.stats();
  const framework::ServerStats ss = server.stats();
  std::printf("\nledger: %zu requests -> %d answered (%d served, %d "
              "overloaded), 0 silent drops\n",
              n_clients, answered, served, overloaded);
  std::printf("front end: %llu batches, %llu messages, largest batch %zu "
              "(queue capacity %zu, max_batch %zu)\n",
              static_cast<unsigned long long>(fs.batches),
              static_cast<unsigned long long>(fs.messages), fs.largest_batch,
              queue_cap, max_batch);
  std::printf("server: %llu challenges issued, %llu served, %llu overload "
              "refusals; %zu loop events\n",
              static_cast<unsigned long long>(ss.challenges_issued),
              static_cast<unsigned long long>(ss.served),
              static_cast<unsigned long long>(ss.rejected_overload), events);
  const bool all_answered = answered == static_cast<int>(n_clients);
  const bool bound_held = n_clients <= queue_cap || overloaded > 0;
  return all_answered && bound_held ? 0 : 1;
}
