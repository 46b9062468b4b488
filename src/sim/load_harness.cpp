#include "sim/load_harness.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "framework/client.hpp"
#include "framework/transport.hpp"
#include "netsim/link.hpp"
#include "netsim/network.hpp"

namespace powai::sim {

namespace {
/// The fixed shape of every load run (see LoadHarnessConfig and
/// WireLoadConfig).
constexpr const char* kPath = "/";
constexpr const char* kServerHost = "198.51.100.250";
constexpr std::uint64_t kNetSeed = 17;
constexpr std::uint64_t kPopulationSeed = 1;
constexpr double kClientHashCostUs = 38.0;
constexpr netsim::LinkModel kLink{
    .base_latency = std::chrono::milliseconds(15),
    .jitter = common::Duration::zero(),
    .bandwidth_bytes_per_sec = 0.0,
    .loss_rate = 0.0};
}  // namespace

double LoadReport::issued_per_s() const {
  return wall_s > 0.0
             ? static_cast<double>(server_delta.challenges_issued) / wall_s
             : 0.0;
}

double LoadReport::served_per_s() const {
  return wall_s > 0.0 ? static_cast<double>(served) / wall_s : 0.0;
}

double LoadReport::hashes_per_s() const {
  return wall_s > 0.0 ? static_cast<double>(solve_attempts) / wall_s : 0.0;
}

double LoadReport::server_bytes_per_client() const {
  return clients > 0 ? static_cast<double>(server_memory_bytes) /
                           static_cast<double>(clients)
                     : 0.0;
}

namespace {
/// FNV-1a over a little-endian integer widened to 8 bytes.
std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

std::uint64_t fold_issue_record(std::uint64_t fingerprint,
                                const IssueRecord& record) {
  std::uint64_t h = fold_u64(fingerprint, record.request_id);
  h = fold_u64(h, record.challenged ? 1 : 0);
  h = fold_u64(h, record.puzzle_id);
  h = fold_u64(h, record.difficulty);
  h = fold_u64(h, static_cast<std::uint64_t>(record.issued_at_ms));
  h = fold_u64(h, static_cast<std::uint64_t>(record.outcome));
  h = fold_u64(h, record.seed.size());
  for (const std::uint8_t byte : record.seed) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t history_fingerprint(const ClientHistory& history) {
  std::uint64_t h = kFingerprintSeed;
  for (const IssueRecord& record : history) h = fold_issue_record(h, record);
  return h;
}

LoadHarness::LoadHarness(framework::PowServer& server, LoadHarnessConfig config)
    : server_(&server), config_(std::move(config)) {
  if (config_.client_threads == 0 || config_.requests_per_client == 0) {
    throw std::invalid_argument(
        "LoadHarness: client_threads and requests_per_client must be > 0");
  }
}

IssueRecord make_issue_record(const framework::RoundTrip& trip) {
  IssueRecord record;
  record.request_id = trip.request_id;
  record.challenged = trip.challenged;
  if (trip.challenged) {
    record.puzzle_id = trip.puzzle.puzzle_id;
    record.seed = trip.puzzle.seed;
    record.difficulty = trip.puzzle.difficulty;
    record.issued_at_ms = trip.puzzle.issued_at_ms;
  }
  record.outcome = trip.response.status;
  return record;
}

IssueRecord make_issue_record(const framework::Challenge& challenge) {
  IssueRecord record;
  record.request_id = challenge.request_id;
  record.challenged = true;
  record.puzzle_id = challenge.puzzle.puzzle_id;
  record.seed = challenge.puzzle.seed;
  record.difficulty = challenge.puzzle.difficulty;
  record.issued_at_ms = challenge.puzzle.issued_at_ms;
  return record;
}

std::string load_client_ip(std::size_t index) {
  return "10." + std::to_string((index >> 16) & 0xff) + "." +
         std::to_string((index >> 8) & 0xff) + "." +
         std::to_string(index & 0xff);
}

LoadReport LoadHarness::run(
    const std::vector<features::FeatureVector>& features) {
  if (features.empty()) {
    throw std::invalid_argument("LoadHarness: features must be non-empty");
  }

  // Per-thread tallies; folded after the join so the client loop itself
  // shares nothing but the server.
  struct Tally {
    std::uint64_t round_trips = 0;
    std::uint64_t served = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t other = 0;
    std::uint64_t attempts = 0;
  };
  std::vector<Tally> tallies(config_.client_threads);
  std::vector<ClientHistory> histories(
      config_.capture_history ? config_.client_threads : 0);

  const framework::ServerStats before = server_->stats();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(config_.client_threads);
  for (std::size_t t = 0; t < config_.client_threads; ++t) {
    threads.emplace_back([this, t, &features, &tallies, &histories, &go] {
      // Default client: one solver thread, no attempt budget.
      framework::PowClient client(load_client_ip(t));
      const features::FeatureVector& fv = features[t % features.size()];
      Tally& tally = tallies[t];
      if (config_.capture_history) {
        histories[t].reserve(config_.requests_per_client);
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < config_.requests_per_client; ++i) {
        const framework::RoundTrip trip = client.run(*server_, kPath, fv);
        ++tally.round_trips;
        tally.attempts += trip.attempts;
        if (trip.served) {
          ++tally.served;
        } else if (trip.response.status == common::ErrorCode::kTimeout) {
          ++tally.timeouts;
        } else if (trip.response.status == common::ErrorCode::kRateLimited) {
          ++tally.rate_limited;
        } else {
          ++tally.other;
        }
        if (config_.capture_history) {
          // Each thread writes only its own slot; per-client order is
          // this client's send order by construction.
          histories[t].push_back(make_issue_record(trip));
        }
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  LoadReport report;
  report.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (const Tally& tally : tallies) {
    report.round_trips += tally.round_trips;
    report.served += tally.served;
    report.solve_timeouts += tally.timeouts;
    report.rate_limited += tally.rate_limited;
    report.rejected_other += tally.other;
    report.solve_attempts += tally.attempts;
  }
  report.clients = config_.client_threads;
  report.server_memory_bytes = server_->memory_bytes();
  report.server_delta = server_->stats() - before;
  report.histories = std::move(histories);
  return report;
}

// ---------------------------------------------------------------------------
// Wire mode
// ---------------------------------------------------------------------------

WireLoadReport run_wire_load(const reputation::IReputationModel& model,
                             const policy::IPolicy& policy,
                             framework::ServerConfig server_cfg,
                             const std::vector<features::FeatureVector>& features,
                             WireLoadConfig cfg) {
  if (features.empty()) {
    throw std::invalid_argument("run_wire_load: features must be non-empty");
  }
  if (cfg.clients == 0 || cfg.requests_per_client == 0) {
    throw std::invalid_argument(
        "run_wire_load: clients and requests_per_client must be > 0");
  }

  netsim::EventLoop loop;
  common::Rng net_rng(kNetSeed);
  netsim::Network network(loop, net_rng);
  network.set_default_link(kLink);

  framework::PowServer server(loop.clock(), model, policy,
                              std::move(server_cfg));

  // Both transports share one endpoint class; the front-end reference
  // flips it into async mode.
  std::unique_ptr<framework::AsyncFrontEnd> front_end;
  std::unique_ptr<framework::ServerEndpoint> endpoint;
  if (cfg.async) {
    front_end = std::make_unique<framework::AsyncFrontEnd>(
        loop, network, kServerHost, server, cfg.front_end);
    endpoint = std::make_unique<framework::ServerEndpoint>(
        network, kServerHost, server, *front_end);
  } else {
    endpoint = std::make_unique<framework::ServerEndpoint>(
        network, kServerHost, server);
  }

  WireLoadReport report;
  report.clients = cfg.clients;
  if (cfg.capture_history) report.histories.resize(cfg.clients);
  if (cfg.capture_fingerprints) {
    report.history_fingerprints.assign(cfg.clients, kFingerprintSeed);
  }

  // All clients ride one host-group registration + one slot table —
  // O(1) simulation state per client, which is what reaches 10^5-10^6
  // clients. Client i lives at load_client_ip(i) == 10.0.0.0 + i.
  framework::WireClientPool pool(loop, network, load_client_ip(0),
                                 cfg.clients, kServerHost, kClientHashCostUs);

  // Optional heavy-tailed think time between one client's exchanges.
  std::unique_ptr<ClientPopulation> population;
  if (cfg.pace_arrivals) {
    PopulationConfig pc;
    pc.clients = cfg.clients;
    pc.base_ip = load_client_ip(0);
    pc.seed = kPopulationSeed;
    pc.arrivals = cfg.arrivals;
    pc.weight_alpha = cfg.weight_alpha;
    population = std::make_unique<ClientPopulation>(std::move(pc));
  }

  // Per-client driver state. The pending record mirrors what
  // capture_history keeps in the history tail, so fingerprints fold the
  // exact records a history run would store — including a challenged
  // record left unanswered (folded at the end with its default outcome,
  // as the history path would record it).
  struct ClientState {
    std::size_t sent = 0;
    IssueRecord pending;
    bool has_pending = false;
  };
  std::vector<ClientState> clients(cfg.clients);

  if (cfg.capture_history || cfg.capture_fingerprints) {
    // Challenge and response handlers both run on the loop thread, so
    // the per-client state needs no synchronization. In the closed
    // loop a request's response always follows its own challenge, so
    // "does the last record carry my id" decides append vs finalize.
    pool.set_challenge_observer(
        [&report, &clients, &cfg](std::size_t ci,
                                  const framework::Challenge& challenge) {
          if (cfg.capture_history) {
            report.histories[ci].push_back(make_issue_record(challenge));
          }
          if (cfg.capture_fingerprints) {
            ClientState& state = clients[ci];
            if (state.has_pending) {
              report.history_fingerprints[ci] = fold_issue_record(
                  report.history_fingerprints[ci], state.pending);
            }
            state.pending = make_issue_record(challenge);
            state.has_pending = true;
          }
        });
  }

  const framework::ServerStats before = server.stats();
  const common::TimePoint sim_start = loop.now();

  // Closed loop: each response triggers the client's next request —
  // immediately, or after the population's think-time gap when paced.
  // The link never drops a message, so every request is answered.
  const auto send = [&](std::size_t ci) {
    ++report.sent;
    pool.send_request(ci, kPath, features[ci % features.size()]);
  };
  const auto kick = [&](std::size_t ci) {
    ClientState& state = clients[ci];
    if (state.sent == cfg.requests_per_client) return;
    const std::uint64_t ordinal = state.sent++;
    if (population) {
      const double now_ms = common::to_millis_f(loop.now().time_since_epoch());
      loop.schedule_in(population->gap_before(ci, ordinal, now_ms),
                       [&send, ci] { send(ci); });
    } else {
      send(ci);
    }
  };

  pool.set_response_handler([&](std::size_t ci,
                                const framework::Response& response,
                                common::Duration) {
    ++report.answered;
    if (response.status == common::ErrorCode::kOk) {
      ++report.served;
    } else if (response.status == common::ErrorCode::kUnavailable) {
      ++report.overloaded;
    } else {
      ++report.rejected;
    }
    if (cfg.capture_history) {
      ClientHistory& history = report.histories[ci];
      if (!history.empty() && history.back().challenged &&
          history.back().request_id == response.request_id) {
        history.back().outcome = response.status;
      } else {
        IssueRecord record;
        record.request_id = response.request_id;
        record.outcome = response.status;
        history.push_back(std::move(record));
      }
    }
    if (cfg.capture_fingerprints) {
      ClientState& state = clients[ci];
      if (state.has_pending && state.pending.challenged &&
          state.pending.request_id == response.request_id) {
        state.pending.outcome = response.status;
      } else {
        if (state.has_pending) {
          report.history_fingerprints[ci] = fold_issue_record(
              report.history_fingerprints[ci], state.pending);
        }
        state.pending = IssueRecord{};
        state.pending.request_id = response.request_id;
        state.pending.outcome = response.status;
      }
      report.history_fingerprints[ci] =
          fold_issue_record(report.history_fingerprints[ci], state.pending);
      state.has_pending = false;
    }
    kick(ci);
  });

  for (std::size_t i = 0; i < cfg.clients; ++i) kick(i);

  if (cfg.async && cfg.front_end.start_paused) {
    // Staged mode: play the wire against the paused drain first, so the
    // initial pile-up (and every overload total) is deterministic, then
    // drain the backlog.
    report.events = loop.run();
  }
  report.events += cfg.async ? front_end->run_until_idle() : loop.run();

  report.sim_elapsed = loop.now() - sim_start;
  report.unanswered = report.sent - report.answered;
  report.messages_sent = network.messages_sent();
  report.server_delta = server.stats() - before;
  if (front_end) report.front_end = front_end->stats();

  if (cfg.capture_fingerprints) {
    // A challenge whose response never came stays pending; fold it with
    // its default outcome, exactly as the history path records it.
    for (std::size_t i = 0; i < cfg.clients; ++i) {
      if (clients[i].has_pending) {
        report.history_fingerprints[i] = fold_issue_record(
            report.history_fingerprints[i], clients[i].pending);
      }
    }
  }

  report.server_memory_bytes = server.memory_bytes();
  report.network_memory_bytes = network.memory_bytes();
  report.client_memory_bytes =
      pool.memory_bytes() +
      (population ? population->memory_bytes() : 0);
  return report;
}

}  // namespace powai::sim
