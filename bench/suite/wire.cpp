// wire_scale and overload_flash — the full wire path: encoded messages
// over netsim, through ServerEndpoint and the AsyncFrontEnd (one drain
// thread, two verify workers: with the loop thread, four threads), with
// a WireClientPool of closed-loop clients paced by a ClientPopulation.
// One client in ten has attacker features. The stack is the one
// sim::run_wire_load assembles, built here from the same public parts
// because run_wire_load reports no per-request latency or per-class
// difficulty.
//
// Clients really solve their puzzles on the loop thread, so both
// workloads use Policy 1 (d = R + 1): client emulation then stays a small
// share of the wall time, which belongs to protocol, netsim and front
// end. Latencies here are simulated time: the clock these clients live
// in.
//
// wire_scale:     pareto arrivals, heavy-tailed activity, fixed per-client
//                 links of 5-25 ms; no overload control — every request
//                 must be served.
// overload_flash: flash-crowd arrivals (x10 at 10 s) against request
//                 deadlines, the degradation ladder and retrying clients.
//                 The ladder's arrival reference is pinned so that it
//                 stays at L0 before the flash and the flash drives it to
//                 L2 or above; shed requests are the designed outcome and
//                 show in served_share, not as failures.

#include <chrono>
#include <functional>
#include <optional>

#include "common/rng.hpp"
#include "features/ip_address.hpp"
#include "framework/async_front_end.hpp"
#include "framework/transport.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "policy/linear_policy.hpp"
#include "sim/load_harness.hpp"
#include "sim/population.hpp"
#include "suite.hpp"

namespace powai::bench {
namespace {

constexpr std::size_t kAttackerEvery = 10;
/// Loop thread, one drain thread, two verify workers.
constexpr std::size_t kBusyThreads = 4;
const std::string kServerHost = "198.51.100.250";
/// overload_flash: request deadline, stamped by clients and defaulted by
/// the server.
constexpr common::Duration kDeadline = std::chrono::seconds(5);
/// Clients sit behind one of this many fixed links (README.md,
/// "Workloads").
constexpr std::size_t kLinkClasses = 64;

struct WireShape {
  std::size_t clients = 0;
  std::uint64_t requests = 0;
  sim::ArrivalConfig arrivals;
  double weight_alpha = 0.0;
  bool overload = false;
};

/// Index 0 = benign, 1 = attacker.
struct WireTally {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t served = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t other = 0;
  std::array<std::uint64_t, 2> challenges{};
  std::array<std::uint64_t, 2> difficulty_sum{};
  std::array<double, 2> work{};
  common::Samples benign_latency_ms;
};

class Wire final : public Workload {
 public:
  Wire(std::uint64_t seed, double scale, WireShape shape)
      : seed_(seed),
        shape_(shape),
        model_(fit_model()),
        policy_(policy::LinearPolicy::policy1()),
        secret_(secret_for(seed)) {
    shape_.clients = scaled(shape.clients, scale, 2 * kAttackerEvery);
    features_ = population_features(seed, shape_.clients, kAttackerEvery);
    sim::PopulationConfig pc;
    pc.clients = shape_.clients;
    pc.base_ip = sim::load_client_ip(0);
    pc.seed = seed;
    pc.arrivals = shape_.arrivals;
    pc.weight_alpha = shape_.weight_alpha;
    population_.emplace(pc);

    // One-way link latencies stratified over [5, 25) ms with offsets drawn
    // from the seed; each client is pinned to one class. Every message's
    // delay is fixed (no jitter, no loss), so runs stay deterministic,
    // while latencies vary per client and per seed.
    common::Rng rng = common::stream_rng(seed, 0x6c696e6bULL);
    for (std::size_t k = 0; k < kLinkClasses; ++k) {
      const double ms =
          5.0 + 20.0 * (static_cast<double>(k) + rng.uniform01()) /
                    static_cast<double>(kLinkClasses);
      link_latency_.push_back(std::chrono::duration_cast<common::Duration>(
          std::chrono::duration<double, std::milli>(ms)));
    }
    link_class_.reserve(shape_.clients);
    for (std::size_t c = 0; c < shape_.clients; ++c) {
      link_class_.push_back(
          static_cast<std::uint8_t>(rng.uniform_u64(0, kLinkClasses - 1)));
    }
  }

  PassResult run_pass(Tracer* tracer) override;

 private:
  static bool attacker(std::size_t c) { return c % kAttackerEvery == 0; }

  framework::ServerConfig server_config() const;

  std::uint64_t seed_;
  WireShape shape_;
  std::unique_ptr<reputation::DabrModel> model_;
  policy::LinearPolicy policy_;
  common::Bytes secret_;
  std::vector<features::FeatureVector> features_;
  std::optional<sim::ClientPopulation> population_;
  std::vector<common::Duration> link_latency_;
  std::vector<std::uint8_t> link_class_;  ///< per client
};

framework::ServerConfig Wire::server_config() const {
  framework::ServerConfig cfg;
  cfg.master_secret = secret_;
  cfg.verify_threads = 2;
  if (shape_.overload) {
    cfg.default_deadline = kDeadline;
    cfg.degrade.enabled = true;
    // Pinned at 2.25x the population's pre-flash request rate: the ladder
    // rests at L0 until the flash, which (with the retries it provokes)
    // drives it to L3 and back (README.md, "Calibration of
    // overload_flash").
    cfg.degrade.arrival_ref_per_s =
        2.25 * static_cast<double>(shape_.clients) /
        (shape_.arrivals.mean_interarrival_ms / 1e3);
    cfg.degrade.l1_difficulty_floor = 8;
    cfg.degrade.l1_ttl = std::chrono::seconds(5);
  }
  return cfg;
}

PassResult Wire::run_pass(Tracer* tracer) {
  const Instrumented layers(*model_, policy_, tracer);

  // Declaration order is teardown order in reverse: clients and front
  // end go before the server, network and loop they reference.
  netsim::EventLoop loop;
  common::Rng net_rng(seed_);
  netsim::Network network(loop, net_rng);
  for (const common::Duration latency : link_latency_) {
    (void)network.add_link_class({.base_latency = latency,
                                  .jitter = common::Duration::zero(),
                                  .bandwidth_bytes_per_sec = 0.0,
                                  .loss_rate = 0.0});
  }
  const std::uint32_t base =
      features::IpAddress::parse(sim::load_client_ip(0))->value();
  network.set_link_class_resolver(
      [&](const std::string& from,
          const std::string& to) -> std::optional<std::size_t> {
        const auto ip =
            features::IpAddress::parse(from == kServerHost ? to : from);
        if (!ip || ip->value() - base >= link_class_.size()) {
          return std::nullopt;
        }
        return link_class_[ip->value() - base];
      });
  framework::PowServer server(loop.clock(), layers.model(), layers.policy(),
                              server_config());
  framework::AsyncFrontEndConfig fe_cfg;
  fe_cfg.drain_shards = 1;
  framework::AsyncFrontEnd front_end(loop, network, kServerHost, server,
                                     fe_cfg);
  framework::ServerEndpoint endpoint(network, kServerHost, server, front_end);
  framework::WireClientPool pool(loop, network, sim::load_client_ip(0),
                                 shape_.clients, kServerHost);
  if (shape_.overload) {
    framework::RetryPolicy retry;
    retry.enabled = true;
    retry.timeout = std::chrono::seconds(2);
    retry.max_attempts = 6;
    retry.backoff_base = std::chrono::milliseconds(50);
    retry.backoff_cap = std::chrono::seconds(1);
    retry.jitter_seed = seed_;
    retry.request_deadline = kDeadline;
    pool.set_retry_policy(retry, [this](std::size_t c) {
      return std::make_pair(std::string("/"), features_[c]);
    });
  }

  WireTally tally;
  std::vector<std::uint32_t> sent(shape_.clients, 0);
  pool.set_challenge_observer(
      [&](std::size_t c, const framework::Challenge& challenge) {
        const std::size_t cls = attacker(c) ? 1 : 0;
        ++tally.challenges[cls];
        tally.difficulty_sum[cls] += challenge.puzzle.difficulty;
        tally.work[cls] += expected_work(challenge.puzzle.difficulty);
      });
  // Closed loop with think time: each resolution schedules the client's
  // next request after its population gap.
  std::function<void(std::size_t)> kick = [&](std::size_t c) {
    if (sent[c] == shape_.requests) return;
    const double now_ms = common::to_millis_f(loop.now().time_since_epoch());
    loop.schedule_in(population_->gap_before(c, sent[c]++, now_ms), [&, c] {
      ++tally.sent;
      (void)pool.send_request(c, "/", features_[c]);
    });
  };
  pool.set_response_handler([&](std::size_t c,
                                const framework::Response& response,
                                common::Duration latency) {
    ++tally.answered;
    switch (response.status) {
      case common::ErrorCode::kOk:
        ++tally.served;
        if (!attacker(c)) {
          tally.benign_latency_ms.add(common::to_millis_f(latency));
        }
        break;
      case common::ErrorCode::kUnavailable: ++tally.unavailable; break;
      case common::ErrorCode::kTimeout: ++tally.timed_out; break;
      default: ++tally.other; break;
    }
    kick(c);
  });
  for (std::size_t c = 0; c < shape_.clients; ++c) kick(c);

  const framework::ServerStats before = server.stats();
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t events = front_end.run_until_idle();
  const auto t1 = std::chrono::steady_clock::now();
  const double cpu1 = process_cpu_s();
  const framework::ServerStats s = server.stats() - before;
  const framework::FrontEndStats fe = front_end.stats();
  const framework::DegradeStats ladder = server.degrade_stats();

  PassResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.cpu_s = cpu1 - cpu0;
  r.ops = tally.sent;
  // Shed and timed-out requests are overload control working as designed
  // (served_share counts them); a failure is anything else not served.
  r.failed_ops = tally.other + (shape_.overload
                                    ? 0
                                    : tally.unavailable + tally.timed_out);
  auto& v = r.violations;
  check(v, tally.sent == shape_.clients * shape_.requests,
        "every client sent every request");
  check(v, tally.sent == tally.answered, "every request resolved exactly once");
  check(v, front_end.accepted() == front_end.completed(),
        "front end completed everything it accepted");
  check(v, front_end.overflows() == s.rejected_overload,
        "queue overflows equal rejected_overload");
  check(v, fe.requests == s.requests,
        "front end drained every counted request");
  check(v,
        fe.submissions ==
            s.served + s.rejected_bad_solution + s.rejected_expired +
                s.rejected_replay + s.rejected_binding +
                s.shed_deadline_submissions + s.shed_degraded_submissions,
        "submission outcomes partition the drained submissions");
  check(v, fe.messages == fe.requests + fe.submissions + fe.expired_dropped,
        "front-end messages partition into requests, submissions, expired");
  check(v,
        s.requests == s.challenges_issued + s.served_without_pow +
                          s.rejected_rate_limited + s.rejected_malformed +
                          s.shed_deadline_requests + s.shed_degraded_requests,
        "request counters partition the server's requests");
  check(v, s.served == tally.served, "clients saw every server serving");
  // Shed ledger: in-queue expiry cannot happen under the frozen-clock
  // pump, and each shed stage needs the configuration that enables it.
  check(v, s.shed_queue_requests + s.shed_queue_submissions == 0,
        "no queue-pop sheds in simulation");
  check(v, ladder.max_level >= 2 || s.shed_degraded_requests == 0,
        "issuance sheds only at ladder level 2 or above");
  check(v, ladder.max_level >= 3 || s.shed_degraded_submissions == 0,
        "submission sheds only at ladder level 3");
  check(v,
        shape_.overload ||
            s.shed_deadline_requests + s.shed_deadline_submissions +
                    s.shed_degraded_requests + s.shed_degraded_submissions ==
                0,
        "no sheds without overload control");

  const double clients = static_cast<double>(shape_.clients);
  EndToEnd& e = r.e2e;
  e.served_per_cpu_s = static_cast<double>(tally.served) / r.cpu_s;
  e.triage_per_cpu_s =
      static_cast<double>(fe.messages + s.rejected_overload) / r.cpu_s;
  e.benign_p50_ms = quantile_or_zero(tally.benign_latency_ms, 0.5);
  e.benign_p99_ms = quantile_or_zero(tally.benign_latency_ms, 0.99);
  e.benign_samples = tally.benign_latency_ms.count();
  e.throttle_work_ratio =
      ratio(ratio(tally.work[1], static_cast<double>(tally.challenges[1])),
            ratio(tally.work[0], static_cast<double>(tally.challenges[0])));
  e.server_bytes_per_client =
      ratio(static_cast<double>(server.memory_bytes()), clients);
  e.served_share = ratio(static_cast<double>(tally.served),
                         static_cast<double>(tally.sent));

  Layers& l = r.layers;
  l.mean_difficulty_benign =
      ratio(static_cast<double>(tally.difficulty_sum[0]),
            static_cast<double>(tally.challenges[0]));
  l.mean_difficulty_attacker =
      ratio(static_cast<double>(tally.difficulty_sum[1]),
            static_cast<double>(tally.challenges[1]));
  l.front_end_mean_batch = ratio(static_cast<double>(fe.messages),
                                 static_cast<double>(fe.batches));
  l.front_end_sojourn_mean_us = fe.sojourn.mean_ms() * 1e3;
  l.shed_deadline = static_cast<double>(s.shed_deadline_requests +
                                        s.shed_deadline_submissions);
  l.shed_queue =
      static_cast<double>(s.shed_queue_requests + s.shed_queue_submissions);
  l.shed_degraded = static_cast<double>(s.shed_degraded_requests +
                                        s.shed_degraded_submissions);
  l.degrade_max_level = static_cast<double>(ladder.max_level);
  l.degrade_transitions = static_cast<double>(ladder.transitions);
  l.events_per_request = ratio(static_cast<double>(events),
                               static_cast<double>(tally.sent));
  l.ns_per_event = ratio(r.wall_s * 1e9, static_cast<double>(events));
  l.messages_per_request = ratio(static_cast<double>(network.messages_sent()),
                                 static_cast<double>(tally.sent));
  l.sim_bytes_per_client =
      ratio(static_cast<double>(network.memory_bytes() + pool.memory_bytes() +
                                population_->memory_bytes()),
            clients);
  if (tracer != nullptr) {
    // Only the decorators are visible from outside on the wire path;
    // they run on the verify workers as root spans.
    const Totals totals = tracer->totals();
    fill_span_layers(totals, r.wall_s, kBusyThreads, l);
    l.cache_hit_share =
        1.0 - ratio(static_cast<double>(
                        totals[static_cast<std::size_t>(Layer::kScore)].count),
                    static_cast<double>(s.challenges_issued));
  }

  r.outcomes = {tally.sent,
                tally.served,
                tally.unavailable,
                tally.timed_out,
                tally.other,
                tally.challenges[0],
                tally.challenges[1],
                tally.difficulty_sum[0],
                tally.difficulty_sum[1],
                s.challenges_issued,
                s.shed_deadline_requests,
                s.shed_deadline_submissions,
                s.shed_degraded_requests,
                s.shed_degraded_submissions,
                events,
                network.messages_sent(),
                static_cast<std::uint64_t>(ladder.max_level),
                ladder.transitions};
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_wire_scale(std::uint64_t seed, double scale) {
  WireShape shape;
  shape.clients = 10'000;
  shape.requests = 2;
  shape.arrivals.process = sim::ArrivalProcess::kPareto;
  shape.arrivals.mean_interarrival_ms = 500.0;
  shape.weight_alpha = 1.2;
  return std::make_unique<Wire>(seed, scale, shape);
}

std::unique_ptr<Workload> make_overload_flash(std::uint64_t seed,
                                              double scale) {
  WireShape shape;
  shape.clients = 5'000;
  shape.requests = 8;
  shape.arrivals.process = sim::ArrivalProcess::kFlashCrowd;
  shape.arrivals.mean_interarrival_ms = 5000.0;
  shape.arrivals.flash_at_ms = 10'000.0;
  shape.arrivals.flash_factor = 10.0;
  shape.overload = true;
  return std::make_unique<Wire>(seed, scale, shape);
}

}  // namespace powai::bench
