#include "sim/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "framework/protocol.hpp"
#include "framework/transport.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"

namespace powai::sim {

namespace {

constexpr const char* kServerHost = "198.51.100.10";
constexpr double kBenignHashCostUs = 38.0;

/// Overload-scenario constants shared between execute() (which arms the
/// knobs) and check_invariants() (which reasons about them). All pure
/// constants so a campaign stays a function of (model, policy, cfg, seed).
constexpr std::int64_t kOverloadWindowMs = 100;
constexpr auto kOverloadWatchdogStall = std::chrono::milliseconds(250);
constexpr std::uint64_t kMaxRecoveryWindows = 200;

common::Duration millis_dur(double ms) {
  return std::chrono::duration_cast<common::Duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Scenario shaping: who the attackers are. Scenarios never touch the
/// fault schedule — only client behavior and overload-control knobs —
/// so a plan replays identically under every scenario.
struct ScenarioShape final {
  double attacker_hash_cost_us;     ///< solve-farm outsourcing = cheap
  common::Duration attacker_gap;    ///< think time between requests
  common::Duration benign_gap;
  common::Duration ramp;            ///< attacker i joins at i * ramp
  bool poison_features;             ///< alternate benign/malicious traffic
  bool auto_replay;                 ///< re-submit every redeemed proof
  std::uint32_t auto_replay_count;
  /// Overload scenario only: arm the full control loop — server-side
  /// deadlines + degradation ladder + drain watchdog, client-side
  /// retry/timeout/backoff — and send this many requests per configured
  /// request from each attacker (the flash crowd).
  bool overload = false;
  std::size_t attacker_request_factor = 1;
};

ScenarioShape shape_for(Scenario scenario) {
  using std::chrono::milliseconds;
  switch (scenario) {
    case Scenario::kBotnetRampUp:
      return {2.0,  milliseconds(10), milliseconds(200), milliseconds(800),
              false, false, 0};
    case Scenario::kReplayFlood:
      return {4.0,  milliseconds(40), milliseconds(200), milliseconds(0),
              false, true, 3};
    case Scenario::kReputationPoisoning:
      return {4.0,  milliseconds(60), milliseconds(200), milliseconds(0),
              true, false, 0};
    case Scenario::kSolveFarm:
      return {0.25, milliseconds(15), milliseconds(200), milliseconds(0),
              false, false, 0};
    case Scenario::kOverloadFlashCrowd:
      // Attackers hammer with tiny think time and a fat request budget;
      // every client retries with the deterministic policy built in
      // execute(). The interesting behavior is the server riding its
      // degradation ladder up under the crowd and back down after.
      return {2.0,  milliseconds(3),  milliseconds(200), milliseconds(0),
              false, false, 0, true, 8};
  }
  return {2.0, milliseconds(10), milliseconds(200), milliseconds(0), false,
          false, 0};
}

/// The deterministic client retry policy the overload scenario installs:
/// pure function of the campaign seed, so schedules replay bit-for-bit.
framework::RetryPolicy overload_retry_policy(std::uint64_t seed) {
  framework::RetryPolicy retry;
  retry.enabled = true;
  retry.timeout = std::chrono::seconds(2);  // >> worst sim RTT + jitter
  retry.max_attempts = 3;
  retry.backoff_base = std::chrono::milliseconds(50);
  retry.backoff_cap = std::chrono::seconds(1);
  retry.jitter_frac = 0.2;
  retry.jitter_seed = seed;
  retry.request_deadline = std::chrono::seconds(6);
  return retry;
}

std::string client_ip(std::size_t index, bool attacker) {
  // Matches the synthetic-trace subnets (10/8 benign, 203/8 malicious) so
  // populations are tellable apart in logs and repro artifacts.
  return std::string(attacker ? "203.0." : "10.0.") +
         std::to_string((index >> 8) & 0xff) + "." +
         std::to_string(index & 0xff);
}

/// Per-client ledger. Mutated on the loop thread only.
struct ClientTally final {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deserted = 0;
  std::uint64_t timed_out = 0;  ///< retry budget exhausted client-side
  std::uint64_t challenges = 0;
  std::uint64_t wire_lost_request = 0;
  std::uint64_t wire_lost_submission = 0;
  std::uint64_t replays_sent = 0;
  std::uint64_t replays_served = 0;
  std::uint64_t malformed_sent = 0;
};

/// A campaign client's closed loop: its request budget, pacing and
/// payloads.
struct ClientSpec final {
  /// Cycled by request id (poisoning attackers alternate two vectors).
  std::vector<features::FeatureVector> features;
  std::size_t n_requests = 0;
  common::Duration gap{};
  common::Duration start_at{};
};

/// One campaign population (benign or attacker) on a
/// framework::WireClientPool. The pool runs every request (send,
/// challenge, modelled solve, submit, timeout/backoff/retry, resolve);
/// this driver paces each client's closed loop, files every request's
/// fate into exactly one tally bucket (what the conservation invariant
/// balances), and carries the misbehavior seams fault events steer:
/// desert challenges, replay redeemed proofs, flood undecodable bytes.
class CampaignPopulation final {
 public:
  /// Client i lives at base_ip + i and runs specs[i]. A disabled
  /// \p retry leaves the pool single-shot. \p auto_replay re-submits
  /// every redeemed proof that many times (0 = never).
  CampaignPopulation(netsim::EventLoop& loop, netsim::Network& network,
                     const std::string& base_ip, double hash_cost_us,
                     std::vector<ClientSpec> specs,
                     const framework::RetryPolicy& retry,
                     std::uint32_t auto_replay)
      : loop_(&loop),
        network_(&network),
        pool_(loop, network, base_ip, specs.size(), kServerHost,
              hash_cost_us),
        retry_enabled_(retry.enabled),
        auto_replay_(auto_replay) {
    clients_.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      clients_[i].spec = std::move(specs[i]);
    }
    pool_.set_response_handler(
        [this](std::size_t client, const framework::Response& response,
               common::Duration) { on_response(client, response); });
    pool_.set_challenge_observer(
        [this](std::size_t client, const framework::Challenge&) {
          on_challenge(client);
        });
    pool_.set_submission_observer(
        [this](std::size_t client, const framework::Submission& submission,
               bool sent) {
          clients_[client].last_submitted = submission;
          if (!sent && !retry_enabled_) {
            ++clients_[client].tally.wire_lost_submission;  // request hangs
          }
        });
    // Answers to requests no longer in flight: replayed submissions, and
    // the id-0 NAKs a malformed flood draws. A kOk here means the server
    // redeemed the same proof twice (the single-redemption detector).
    pool_.set_stray_observer(
        [this](std::size_t client, const framework::Response& response) {
          if (response.status == common::ErrorCode::kOk) {
            ++clients_[client].tally.replays_served;
          }
        });
    // A client has at most one request in flight, the one its `sent`
    // count names, so a resend rebuilds that request's payload.
    pool_.set_retry_policy(retry, [this](std::size_t client) {
      const Client& c = clients_[client];
      return std::make_pair(std::string("/"), features_of(c, c.tally.sent));
    });
  }

  CampaignPopulation(const CampaignPopulation&) = delete;
  CampaignPopulation& operator=(const CampaignPopulation&) = delete;

  [[nodiscard]] std::size_t size() const { return clients_.size(); }

  void start() {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      loop_->schedule_in(clients_[i].spec.start_at,
                         [this, i] { send_next(i); });
    }
  }

  /// Abandon the next \p n challenges without submitting.
  void desert_next(std::size_t client, std::uint32_t n) {
    clients_[client].desert_budget += n;
  }

  /// Re-submit the most recently redeemed proof \p n times (no-op until
  /// something has been served).
  void replay_last(std::size_t client, std::uint32_t n) {
    Client& c = clients_[client];
    if (!c.last_served) return;
    const common::Bytes wire = c.last_served->serialize();
    for (std::uint32_t i = 0; i < n; ++i) {
      ++c.tally.replays_sent;
      (void)network_->send(pool_.ip_of(client), kServerHost, wire);
    }
  }

  /// Send \p n undecodable payloads (bogus type tag) at the server.
  void send_malformed(std::size_t client, std::uint32_t n) {
    ClientTally& tally = clients_[client].tally;
    for (std::uint32_t i = 0; i < n; ++i) {
      ++tally.malformed_sent;
      common::Bytes junk = {0xff, static_cast<std::uint8_t>(i),
                            static_cast<std::uint8_t>(tally.malformed_sent)};
      (void)network_->send(pool_.ip_of(client), kServerHost,
                           std::move(junk));
    }
  }

  [[nodiscard]] const ClientTally& tally(std::size_t client) const {
    return clients_[client].tally;
  }

 private:
  struct Client final {
    ClientSpec spec;
    ClientTally tally;
    std::uint32_t desert_budget = 0;
    std::optional<framework::Submission> last_submitted;
    std::optional<framework::Submission> last_served;
  };

  static const features::FeatureVector& features_of(const Client& c,
                                                    std::uint64_t request_id) {
    return c.spec.features[(request_id - 1) % c.spec.features.size()];
  }

  void send_next(std::size_t client) {
    Client& c = clients_[client];
    if (c.tally.sent >= c.spec.n_requests) return;
    ++c.tally.sent;
    if (pool_.send_request(client, "/", features_of(c, c.tally.sent)) == 0) {
      // Lost at send without retries: not in flight, so move on. With
      // retries the pool's timer resends (or resolves kTimeout) instead.
      ++c.tally.wire_lost_request;
      schedule_next(client);
    }
  }

  void schedule_next(std::size_t client) {
    loop_->schedule_in(clients_[client].spec.gap,
                       [this, client] { send_next(client); });
  }

  void on_challenge(std::size_t client) {
    Client& c = clients_[client];
    ++c.tally.challenges;
    if (c.desert_budget == 0) return;
    --c.desert_budget;
    ++c.tally.deserted;
    pool_.abandon(client);
    schedule_next(client);
  }

  void on_response(std::size_t client, const framework::Response& response) {
    Client& c = clients_[client];
    ++c.tally.answered;
    if (response.status == common::ErrorCode::kTimeout) {
      // The pool's synthetic resolution once the retry budget is spent;
      // it still counts as answered so the conservation ledger
      // partitions every request.
      ++c.tally.timed_out;
    } else if (response.status == common::ErrorCode::kOk) {
      ++c.tally.served;
      if (c.last_submitted &&
          c.last_submitted->request_id == response.request_id) {
        c.last_served = c.last_submitted;
      }
      replay_last(client, auto_replay_);
    } else if (response.status == common::ErrorCode::kUnavailable) {
      ++c.tally.overloaded;
    } else {
      ++c.tally.rejected;
    }
    schedule_next(client);
  }

  netsim::EventLoop* loop_;
  netsim::Network* network_;
  framework::WireClientPool pool_;
  bool retry_enabled_;
  std::uint32_t auto_replay_;
  std::vector<Client> clients_;
};

/// One execution's raw output: the comparable tallies plus async-side
/// bookkeeping the invariant checkers need but the fingerprint excludes.
struct RunOutput final {
  CampaignTallies tallies;
  std::uint64_t unresolved = 0;  ///< sent - answered - deserted
  bool async = false;
  bool retry_enabled = false;    ///< scenario armed client retries
  bool ladder_enabled = false;   ///< scenario armed the degrade ladder
  std::uint64_t fe_accepted = 0;
  std::uint64_t fe_completed = 0;
  std::uint64_t fe_overflows = 0;
  std::uint64_t fe_requests = 0;
  std::uint64_t fe_submissions = 0;
  std::uint64_t fe_messages = 0;
  std::uint64_t fe_expired_dropped = 0;
  /// Wall-clock watchdog observations (async only; never fingerprinted).
  bool watchdog_armed = false;
  std::uint64_t watchdog_stalls = 0;
  /// Ladder cooldown after the run: windows polled until L0 (or the
  /// recovery bound, whichever came first) — deterministic.
  std::uint64_t recovery_windows = 0;
  int final_level = 0;
};

/// Pre-derives the per-client feature vectors. Streamed per client index
/// so the vectors are identical regardless of execution mode or order.
std::vector<std::vector<features::FeatureVector>> derive_features(
    const CampaignConfig& cfg, const ScenarioShape& shape) {
  const features::SyntheticTraceGenerator traffic;
  const std::size_t total = cfg.benign_clients + cfg.attackers;
  std::vector<std::vector<features::FeatureVector>> out(total);
  for (std::size_t i = 0; i < total; ++i) {
    const bool attacker = i >= cfg.benign_clients;
    common::Rng rng = common::stream_rng(cfg.seed, 0xfea70000ULL + i);
    if (attacker && shape.poison_features) {
      // Poisoning: look benign on even requests, flood on odd ones, so
      // the per-IP EWMA cache averages a half-clean history.
      out[i].push_back(traffic.sample(false, rng));
      out[i].push_back(traffic.sample(true, rng));
    } else {
      out[i].push_back(traffic.sample(attacker, rng));
    }
  }
  return out;
}

RunOutput execute(const reputation::IReputationModel& model,
                  const policy::IPolicy& policy, const CampaignConfig& cfg,
                  const FaultPlan& plan, bool async) {
  const ScenarioShape shape = shape_for(cfg.scenario);
  const std::size_t total = cfg.benign_clients + cfg.attackers;
  if (total == 0) {
    throw std::invalid_argument("run_campaign: no clients configured");
  }

  netsim::EventLoop loop;
  common::Rng net_rng(plan.seed);
  netsim::Network network(loop, net_rng);

  // Campaign base links are draw-free (no jitter, no loss): all
  // randomness in delivery comes from the fault overlay's per-pair
  // derived streams, so adding or removing fault events never perturbs
  // anything else — the property the shrinker relies on.
  netsim::LinkModel link;
  link.base_latency = std::chrono::milliseconds(15);
  link.jitter = common::Duration::zero();
  link.loss_rate = 0.0;
  network.set_default_link(link);
  network.set_fault_stream_seed(plan.seed ^ 0x666175'6c747321ULL);

  common::SkewClock skew_clock(loop.clock());
  framework::ServerConfig server_cfg;
  server_cfg.master_secret = common::bytes_of("powai.campaign.secret.v1");
  server_cfg.verify_threads = cfg.verify_threads;
  server_cfg.rate_limiter_enabled = true;
  server_cfg.rate_limiter.tokens_per_second = cfg.rate_tokens_per_second;
  server_cfg.rate_limiter.burst = cfg.rate_burst;
  if (shape.overload) {
    // Arm the server half of the overload-control loop: a default
    // request deadline (requests also stamp their own) and the
    // degradation ladder. The arrival-rate reference is sized so the
    // flash crowd rides the ladder well past L1 while the benign
    // baseline alone stays calm.
    server_cfg.default_deadline = std::chrono::seconds(8);
    server_cfg.degrade.enabled = true;
    server_cfg.degrade.window = std::chrono::milliseconds(kOverloadWindowMs);
    server_cfg.degrade.arrival_ref_per_s = 60.0;
    server_cfg.degrade.sojourn_ref_ms = 50.0;
    server_cfg.degrade.l1_difficulty_floor = 12;
    server_cfg.degrade.l1_ttl = std::chrono::seconds(5);
  }
  framework::PowServer server(skew_clock, model, policy,
                              std::move(server_cfg));

  std::unique_ptr<framework::AsyncFrontEnd> front_end;
  std::unique_ptr<framework::ServerEndpoint> endpoint;
  if (async) {
    framework::AsyncFrontEndConfig fe_cfg = cfg.front_end;
    // Paused until run_until_idle(): fault hooks install before any
    // batch can pop.
    fe_cfg.start_paused = true;
    // Overload scenario arms the drain watchdog (wall-clock observer;
    // never part of the fingerprint).
    if (shape.overload) fe_cfg.watchdog_stall = kOverloadWatchdogStall;
    front_end = std::make_unique<framework::AsyncFrontEnd>(
        loop, network, kServerHost, server, fe_cfg);
    endpoint = std::make_unique<framework::ServerEndpoint>(
        network, kServerHost, server, *front_end);
  } else {
    endpoint = std::make_unique<framework::ServerEndpoint>(
        network, kServerHost, server);
  }

  // Two pools, benign then attackers, so global client i (the fault
  // plan's target space and the tally order) is benign i or attacker
  // i - benign_clients; client_ip() gives each a contiguous range.
  const auto features = derive_features(cfg, shape);
  const framework::RetryPolicy retry = shape.overload
                                           ? overload_retry_policy(cfg.seed)
                                           : framework::RetryPolicy{};
  std::vector<std::unique_ptr<CampaignPopulation>> populations;
  for (const bool attacker : {false, true}) {
    const std::size_t first = attacker ? cfg.benign_clients : 0;
    const std::size_t count = attacker ? cfg.attackers : cfg.benign_clients;
    if (count == 0) continue;
    std::vector<ClientSpec> specs(count);
    for (std::size_t k = 0; k < count; ++k) {
      ClientSpec& spec = specs[k];
      spec.features = features[first + k];
      spec.n_requests = cfg.requests_per_client *
                        (attacker ? shape.attacker_request_factor : 1);
      spec.gap = attacker ? shape.attacker_gap : shape.benign_gap;
      // Benign clients stagger lightly; attackers join on the scenario's
      // ramp (all at once when ramp is zero).
      spec.start_at = attacker ? std::chrono::milliseconds(50) +
                                     shape.ramp * static_cast<std::int64_t>(k)
                               : std::chrono::milliseconds(30) *
                                     static_cast<std::int64_t>(k);
    }
    populations.push_back(std::make_unique<CampaignPopulation>(
        loop, network, client_ip(first, attacker),
        attacker ? shape.attacker_hash_cost_us : kBenignHashCostUs,
        std::move(specs), retry,
        attacker && shape.auto_replay ? shape.auto_replay_count : 0));
  }
  // Fault targets index clients globally.
  const auto client_at = [&populations, total](std::uint64_t target) {
    std::size_t index = static_cast<std::size_t>(target % total);
    for (const auto& population : populations) {
      if (index < population->size()) {
        return std::make_pair(population.get(), index);
      }
      index -= population->size();
    }
    throw std::logic_error("run_campaign: client index out of range");
  };

  // --- Schedule the fault plan -------------------------------------------
  // Overlapping link windows compose: losses combine as independent
  // probabilities, jitters and skews add. The shared `active` list is
  // loop-thread-only.
  const common::TimePoint start = loop.now();
  auto active = std::make_shared<std::vector<FaultEvent>>();
  netsim::Network* net = &network;
  auto apply_overlay = [net, active] {
    netsim::LinkFault combined;
    double pass = 1.0;
    for (const FaultEvent& e : *active) {
      if (e.kind == FaultKind::kLinkLossBurst) {
        pass *= 1.0 - e.magnitude;
      } else if (e.kind == FaultKind::kJitterBurst) {
        combined.extra_jitter += millis_dur(e.magnitude);
      }
    }
    combined.extra_loss = 1.0 - pass;
    net->set_fault(combined);
  };
  auto skew_sum = std::make_shared<common::Duration>(common::Duration::zero());
  common::SkewClock* skew = &skew_clock;

  struct Stall final {
    std::size_t shard;
    std::uint64_t first_batch;
    std::uint64_t batches;
    double ms;
  };
  std::vector<Stall> stalls;
  std::vector<Stall> verify_sleeps;  ///< kSlowVerify: first_batch = verify call
  const std::size_t shards = std::max<std::size_t>(1, cfg.front_end.drain_shards);

  for (const FaultEvent& event : plan.events) {
    switch (event.kind) {
      case FaultKind::kLinkLossBurst:
      case FaultKind::kJitterBurst:
        loop.schedule_at(start + event.at, [active, apply_overlay, event] {
          active->push_back(event);
          apply_overlay();
        });
        loop.schedule_at(start + event.at + event.duration,
                         [active, apply_overlay, event] {
                           const auto it = std::find(active->begin(),
                                                     active->end(), event);
                           if (it != active->end()) active->erase(it);
                           apply_overlay();
                         });
        break;
      case FaultKind::kClockSkew:
        loop.schedule_at(start + event.at, [skew, skew_sum, event] {
          *skew_sum += millis_dur(event.magnitude);
          skew->set_skew(*skew_sum);
        });
        loop.schedule_at(start + event.at + event.duration,
                         [skew, skew_sum, event] {
                           *skew_sum -= millis_dur(event.magnitude);
                           skew->set_skew(*skew_sum);
                         });
        break;
      case FaultKind::kDrainStall:
        // Wall-clock-only: stalls a shard's drain thread for a run of
        // batches. Sim time and totals must be unaffected — that is the
        // invariant under test.
        if (async) {
          stalls.push_back(Stall{event.target % shards,
                                 (event.target / 16) % 8, event.count,
                                 event.magnitude});
        }
        break;
      case FaultKind::kMalformedFlood:
        loop.schedule_at(start + event.at,
                         [client_at, event] {
                           const auto [population, i] =
                               client_at(event.target);
                           population->send_malformed(i, event.count);
                         });
        break;
      case FaultKind::kSolverDesertion:
        loop.schedule_at(start + event.at,
                         [client_at, event] {
                           const auto [population, i] =
                               client_at(event.target);
                           population->desert_next(i, event.count);
                         });
        break;
      case FaultKind::kReplayFlood:
        loop.schedule_at(start + event.at,
                         [client_at, event] {
                           const auto [population, i] =
                               client_at(event.target);
                           population->replay_last(i, event.count);
                         });
        break;
      case FaultKind::kSlowVerify:
        // Wall-clock-only like kDrainStall, but on the verification seam:
        // a run of a shard's submission batches sleeps before hitting the
        // verifier. Totals must be unaffected — only wall latency and the
        // watchdog's view of the shard move.
        if (async) {
          verify_sleeps.push_back(Stall{event.target % shards,
                                        (event.target / 16) % 8, event.count,
                                        event.magnitude});
        }
        break;
    }
  }
  if (front_end && (!stalls.empty() || !verify_sleeps.empty())) {
    framework::FrontEndFaultHooks hooks;
    if (!stalls.empty()) {
      hooks.before_batch = [stalls](std::size_t shard,
                                    std::uint64_t batch_index) {
        for (const Stall& s : stalls) {
          if (s.shard == shard && batch_index >= s.first_batch &&
              batch_index < s.first_batch + s.batches) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(s.ms));
          }
        }
      };
    }
    if (!verify_sleeps.empty()) {
      // before_verify reports (shard, batch size) but not a batch index;
      // each slot below is only ever touched by its own drain thread.
      auto verify_calls =
          std::make_shared<std::vector<std::uint64_t>>(shards, 0);
      hooks.before_verify = [verify_sleeps, verify_calls](
                                std::size_t shard, std::size_t submissions) {
        (void)submissions;
        const std::uint64_t index = (*verify_calls)[shard]++;
        for (const Stall& s : verify_sleeps) {
          if (s.shard == shard && index >= s.first_batch &&
              index < s.first_batch + s.batches) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(s.ms));
          }
        }
      };
    }
    front_end->set_fault_hooks(std::move(hooks));
  }

  for (auto& population : populations) population->start();
  if (async) {
    (void)front_end->run_until_idle();
  } else {
    (void)loop.run();
  }

  // --- Collect -----------------------------------------------------------
  RunOutput out;
  out.async = async;
  out.retry_enabled = shape.overload;
  out.ladder_enabled = shape.overload;
  out.tallies.server = server.stats();
  out.tallies.clients.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto [population, index] = client_at(i);
    const ClientTally& t = population->tally(index);
    ClientOutcome row;
    row.sent = t.sent;
    row.served = t.served;
    row.rejected = t.rejected;
    row.overloaded = t.overloaded;
    row.deserted = t.deserted;
    row.timed_out = t.timed_out;
    row.challenges = t.challenges;
    row.replays_served = t.replays_served;
    out.tallies.clients.push_back(row);

    out.tallies.requests_sent += t.sent;
    out.tallies.answered += t.answered;
    out.tallies.served += t.served;
    out.tallies.deserted += t.deserted;
    out.tallies.timed_out += t.timed_out;
    out.tallies.replays_sent += t.replays_sent;
    out.tallies.replays_served += t.replays_served;
    out.tallies.malformed_sent += t.malformed_sent;
    out.unresolved += t.sent - t.answered - t.deserted;
    out.tallies.hung +=
        t.sent - t.answered - t.deserted - t.wire_lost_request -
        t.wire_lost_submission;
  }
  out.tallies.wire_messages = network.messages_sent();
  out.tallies.wire_dropped = network.messages_dropped();
  out.tallies.fault_dropped = network.fault_dropped();
  out.tallies.sim_elapsed = loop.now() - start;
  // Ladder high-water marks go into the comparable tallies *before* the
  // recovery cooldown below — stepping back down adds transitions, and
  // the fingerprint pins the ride under load, not the cooldown.
  const framework::DegradeStats degrade = server.degrade_stats();
  out.tallies.degrade_max_level =
      static_cast<std::uint64_t>(degrade.max_level);
  out.tallies.degrade_transitions = degrade.transitions;
  if (front_end) {
    out.fe_accepted = front_end->accepted();
    out.fe_completed = front_end->completed();
    out.fe_overflows = front_end->overflows();
    const framework::FrontEndStats fe = front_end->stats();
    out.fe_requests = fe.requests;
    out.fe_submissions = fe.submissions;
    out.fe_messages = fe.messages;
    out.fe_expired_dropped = fe.expired_dropped;
    out.watchdog_armed = shape.overload;
    out.watchdog_stalls = front_end->watchdog_stats().stalls;
  }
  if (shape.overload) {
    // Post-run cooldown: fold empty windows forward until the ladder is
    // back at L0. Deterministic (pure ladder arithmetic), and bounded by
    // the hysteresis: at most levels x calm_windows folds plus EWMA
    // decay — kMaxRecoveryWindows is far above that. Start past the
    // plan's total forward skew: arrivals recorded under a skewed clock
    // advanced the ladder's epoch beyond end-of-run sim time, and polls
    // behind the current epoch fold nothing.
    std::int64_t poll_ms = server.now_ms();
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kClockSkew) {
        poll_ms += static_cast<std::int64_t>(e.magnitude);
      }
    }
    while (server.degrade_level() > 0 &&
           out.recovery_windows < kMaxRecoveryWindows) {
      poll_ms += kOverloadWindowMs;
      ++out.recovery_windows;
      server.poll_degrade(poll_ms);
    }
    out.final_level = server.degrade_level();
  }
  return out;
}

bool plan_contains(const FaultPlan& plan, FaultKind kind) {
  return std::any_of(plan.events.begin(), plan.events.end(),
                     [kind](const FaultEvent& e) { return e.kind == kind; });
}

void check_invariants(const CampaignConfig& cfg, const FaultPlan& plan,
                      const RunOutput& run,
                      std::vector<InvariantViolation>& out) {
  const CampaignTallies& t = run.tallies;
  const framework::ServerStats& s = t.server;

  // Conservation: every unanswered, undeserted request must be explained
  // by a wire drop, and with lossless base links every drop is the fault
  // overlay's doing.
  if (run.unresolved > t.wire_dropped) {
    out.push_back(
        {"conservation",
         std::to_string(run.unresolved) + " unresolved requests but only " +
             std::to_string(t.wire_dropped) + " dropped messages"});
  }
  if (t.wire_dropped != t.fault_dropped) {
    out.push_back({"conservation",
                   "base links are lossless yet dropped=" +
                       std::to_string(t.wire_dropped) + " != fault_dropped=" +
                       std::to_string(t.fault_dropped)});
  }

  // Ledger: the server's request-side counters partition its requests,
  // servings never exceed issuance, and client-observed servings never
  // exceed the server's.
  if (s.requests != s.challenges_issued + s.served_without_pow +
                        s.rejected_rate_limited + s.rejected_malformed +
                        s.shed_deadline_requests + s.shed_degraded_requests) {
    out.push_back({"ledger",
                   "requests=" + std::to_string(s.requests) +
                       " != issued+no_pow+rate_limited+malformed+shed=" +
                       std::to_string(s.challenges_issued +
                                      s.served_without_pow +
                                      s.rejected_rate_limited +
                                      s.rejected_malformed +
                                      s.shed_deadline_requests +
                                      s.shed_degraded_requests)});
  }
  if (s.served > s.challenges_issued + s.served_without_pow) {
    out.push_back({"ledger", "served=" + std::to_string(s.served) +
                                 " exceeds challenges_issued=" +
                                 std::to_string(s.challenges_issued)});
  }
  if (t.served > s.served) {
    out.push_back({"ledger",
                   "clients observed served=" + std::to_string(t.served) +
                       " > server served=" + std::to_string(s.served)});
  }
  if (run.async) {
    if (run.fe_accepted != run.fe_completed) {
      out.push_back({"ledger",
                     "front end accepted=" + std::to_string(run.fe_accepted) +
                         " != completed=" + std::to_string(run.fe_completed) +
                         " after drain"});
    }
    if (run.fe_overflows != s.rejected_overload) {
      out.push_back(
          {"ledger", "queue overflows=" + std::to_string(run.fe_overflows) +
                         " != rejected_overload=" +
                         std::to_string(s.rejected_overload)});
    }
    if (run.fe_requests != s.requests) {
      out.push_back({"ledger",
                     "front end drained " + std::to_string(run.fe_requests) +
                         " requests but server counted " +
                         std::to_string(s.requests)});
    }
    const std::uint64_t submission_outcomes =
        (s.served - s.served_without_pow) + s.rejected_bad_solution +
        s.rejected_expired + s.rejected_replay + s.rejected_binding +
        s.shed_deadline_submissions + s.shed_degraded_submissions;
    if (run.fe_submissions != submission_outcomes) {
      out.push_back(
          {"ledger",
           "front end drained " + std::to_string(run.fe_submissions) +
               " submissions but outcomes sum to " +
               std::to_string(submission_outcomes)});
    }
    if (run.fe_messages !=
        run.fe_requests + run.fe_submissions + run.fe_expired_dropped) {
      out.push_back(
          {"ledger",
           "front end messages=" + std::to_string(run.fe_messages) +
               " != requests+submissions+expired_dropped=" +
               std::to_string(run.fe_requests + run.fe_submissions +
                              run.fe_expired_dropped)});
    }
  }

  // Single redemption: no replayed proof may ever be served again.
  if (t.replays_served != 0) {
    out.push_back({"single_redeem",
                   std::to_string(t.replays_served) +
                       " replayed submissions were served (cache must cap "
                       "redemption at once)"});
  }

  // Rate budget: no client may receive more challenges than its token
  // bucket could have granted. Forward clock skew refills buckets early,
  // so the bound credits the total scheduled skew.
  double skew_extra_s = 0.0;
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::kClockSkew) skew_extra_s += e.magnitude / 1000.0;
  }
  const double elapsed_s =
      std::chrono::duration<double>(t.sim_elapsed).count();
  const double budget = cfg.rate_burst +
                        cfg.rate_tokens_per_second * (elapsed_s + skew_extra_s) +
                        1.0;
  for (std::size_t i = 0; i < t.clients.size(); ++i) {
    if (static_cast<double>(t.clients[i].challenges) > budget) {
      out.push_back(
          {"rate_budget",
           "client " + std::to_string(i) + " received " +
               std::to_string(t.clients[i].challenges) +
               " challenges, budget " + std::to_string(budget)});
    }
  }

  // Exactly-once: client retry/timeout closes the liveness hole wire
  // loss opens — with retries armed nothing may end the run unresolved
  // (a request's fate is answered, deserted, or client-side kTimeout).
  if (run.retry_enabled && run.unresolved != 0) {
    out.push_back({"exactly_once",
                   std::to_string(run.unresolved) +
                       " requests left unresolved despite retry/timeout "
                       "(every request must resolve exactly once)"});
  }

  // Shed ledger: shed counters must be consistent with the ladder ride.
  if (!run.ladder_enabled &&
      (s.shed_degraded_requests + s.shed_degraded_submissions != 0 ||
       t.degrade_max_level != 0 || t.degrade_transitions != 0)) {
    out.push_back({"shed_ledger",
                   "ladder disabled yet degraded sheds/transitions nonzero"});
  }
  if (!run.retry_enabled &&
      s.shed_deadline_requests + s.shed_deadline_submissions != 0) {
    // Only the overload scenario stamps deadlines or sets a default.
    out.push_back({"shed_ledger",
                   "no deadlines configured yet deadline sheds nonzero"});
  }
  if (s.shed_queue_requests + s.shed_queue_submissions != 0) {
    // The simulator's pump freezes sim time while batches are in flight,
    // so a message can never expire *inside* the queue here; queue-pop
    // shedding is a wall-deployment path (unit-tested directly).
    out.push_back({"shed_ledger",
                   "queue-pop sheds in simulation (in-queue expiry is "
                   "structurally impossible under the frozen-clock pump)"});
  }
  if (t.degrade_max_level < 3 && s.shed_degraded_submissions != 0) {
    out.push_back({"shed_ledger",
                   "submission sheds without the ladder reaching L3"});
  }
  if (t.degrade_max_level < 2 && s.shed_degraded_requests != 0) {
    out.push_back({"shed_ledger",
                   "issuance sheds without the ladder reaching L2"});
  }

  // Recovery: once load stops, hysteresis bounds the walk back to L0.
  if (run.ladder_enabled && run.final_level != 0) {
    out.push_back({"degrade_recovery",
                   "ladder still at L" + std::to_string(run.final_level) +
                       " after " + std::to_string(run.recovery_windows) +
                       " cooldown windows"});
  }

  // Watchdog (one-sided): a single injected wall-clock sleep comfortably
  // past the stall deadline must be flagged. Only sound when the stalled
  // shard is guaranteed traffic from its first batch on, so the check is
  // scoped to single-shard runs and events targeting batch run 0;
  // derived plans (sleeps <= 8ms << 625ms) never arm it — hand-built
  // plans in the acceptance tests do.
  if (run.async && run.watchdog_armed && cfg.front_end.drain_shards <= 1 &&
      run.fe_messages > 0) {
    double worst_ms = 0.0;
    for (const FaultEvent& e : plan.events) {
      const bool executes =
          (e.kind == FaultKind::kDrainStall) ||
          (e.kind == FaultKind::kSlowVerify && run.fe_submissions > 0);
      if (executes && (e.target / 16) % 8 == 0) {
        worst_ms = std::max(worst_ms, e.magnitude);
      }
    }
    const double stall_ms =
        std::chrono::duration<double, std::milli>(kOverloadWatchdogStall)
            .count();
    if (worst_ms >= 2.5 * stall_ms && run.watchdog_stalls == 0) {
      out.push_back({"watchdog",
                     "injected " + std::to_string(worst_ms) +
                         "ms stall never flagged (deadline " +
                         std::to_string(stall_ms) + "ms)"});
    }
  }
}

}  // namespace

std::string_view scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kBotnetRampUp: return "botnet_ramp_up";
    case Scenario::kReplayFlood: return "replay_flood";
    case Scenario::kReputationPoisoning: return "reputation_poisoning";
    case Scenario::kSolveFarm: return "solve_farm";
    case Scenario::kOverloadFlashCrowd: return "overload_flash_crowd";
  }
  return "unknown";
}

std::optional<Scenario> scenario_from_name(std::string_view name) {
  for (const Scenario scenario : kAllScenarios) {
    if (scenario_name(scenario) == name) return scenario;
  }
  return std::nullopt;
}

std::string CampaignTallies::fingerprint() const {
  std::string out;
  const auto add = [&out](const char* key, std::uint64_t value) {
    out += key;
    out += std::to_string(value);
  };
  add("req=", requests_sent);
  add(" ans=", answered);
  add(" served=", served);
  add(" deserted=", deserted);
  add(" timed_out=", timed_out);
  add(" hung=", hung);
  add(" replay_sent=", replays_sent);
  add(" replay_served=", replays_served);
  add(" malformed=", malformed_sent);
  add(" wire=", wire_messages);
  add("/", wire_dropped);
  add("/", fault_dropped);
  add(" sim_ns=", static_cast<std::uint64_t>(sim_elapsed.count()));
  add(" | srv req=", server.requests);
  add(" iss=", server.challenges_issued);
  add(" served=", server.served);
  add(" rl=", server.rejected_rate_limited);
  add(" bad=", server.rejected_bad_solution);
  add(" exp=", server.rejected_expired);
  add(" rep=", server.rejected_replay);
  add(" bind=", server.rejected_binding);
  add(" ovl=", server.rejected_overload);
  add(" shed_dl=", server.shed_deadline_requests);
  add("/", server.shed_deadline_submissions);
  add(" shed_q=", server.shed_queue_requests);
  add("/", server.shed_queue_submissions);
  add(" shed_deg=", server.shed_degraded_requests);
  add("/", server.shed_degraded_submissions);
  add(" deg=", degrade_max_level);
  add("/", degrade_transitions);
  add(" dsum=", server.difficulty_sum);
  out += " |";
  for (const ClientOutcome& c : clients) {
    add(" ", c.sent);
    add(":", c.served);
    add(":", c.rejected);
    add(":", c.overloaded);
    add(":", c.deserted);
    add(":", c.timed_out);
    add(":", c.challenges);
    add(":", c.replays_served);
  }
  return out;
}

CampaignResult run_campaign_with_plan(
    const reputation::IReputationModel& model, const policy::IPolicy& policy,
    const CampaignConfig& config, const FaultPlan& plan) {
  const auto t0 = std::chrono::steady_clock::now();
  CampaignResult result;
  result.plan = plan;

  const RunOutput primary = execute(model, policy, config, plan, true);
  result.tallies = primary.tallies;
  result.watchdog_stalls = primary.watchdog_stalls;
  result.recovery_windows = primary.recovery_windows;
  check_invariants(config, plan, primary, result.violations);

  if (config.check_sync_equivalence) {
    const RunOutput twin = execute(model, policy, config, plan, false);
    if (twin.tallies != primary.tallies) {
      result.violations.push_back(
          {"async_sync_divergence",
           "async: " + primary.tallies.fingerprint() +
               "\n  sync: " + twin.tallies.fingerprint()});
    }
  }

  if (config.fail_on_kind && plan_contains(plan, *config.fail_on_kind)) {
    result.violations.push_back(
        {"test_hook", "plan contains " +
                          std::string(fault_kind_name(*config.fail_on_kind))});
  }

  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

CampaignResult run_campaign(const reputation::IReputationModel& model,
                            const policy::IPolicy& policy,
                            const CampaignConfig& config) {
  return run_campaign_with_plan(model, policy, config,
                                FaultPlan::derive(config.seed, config.plan));
}

std::string ShrinkReport::replay_command(Scenario scenario) const {
  std::string cmd = "run_campaigns scenario=" +
                    std::string(scenario_name(scenario)) +
                    " seed=" + std::to_string(minimized.seed);
  if (!minimized.is_full()) cmd += " keep=" + minimized.keep_spec();
  return cmd;
}

ShrinkReport shrink_failing_plan(const reputation::IReputationModel& model,
                                 const policy::IPolicy& policy,
                                 const CampaignConfig& config,
                                 const CampaignResult& failure,
                                 std::size_t max_runs) {
  ShrinkReport report;
  report.minimized = failure.plan;
  report.result = failure;

  // ddmin-style greedy pass over the *schedule*: drop chunks (halves,
  // then smaller) and keep any candidate that still fails. The seed is
  // untouched, and surviving events are byte-identical under subsetting,
  // so every candidate run replays exactly.
  bool progress = true;
  while (progress && report.minimized.events.size() > 1 &&
         report.runs < max_runs) {
    progress = false;
    const std::size_t n = report.minimized.events.size();
    for (std::size_t chunk = n / 2; chunk >= 1 && !progress; chunk /= 2) {
      for (std::size_t begin = 0;
           begin + chunk <= report.minimized.events.size() && !progress;
           begin += chunk) {
        std::vector<std::size_t> keep;
        keep.reserve(report.minimized.events.size() - chunk);
        for (std::size_t i = 0; i < report.minimized.events.size(); ++i) {
          if (i < begin || i >= begin + chunk) keep.push_back(i);
        }
        if (keep.empty()) continue;
        const FaultPlan candidate = report.minimized.subset(keep);
        const CampaignResult attempt =
            run_campaign_with_plan(model, policy, config, candidate);
        ++report.runs;
        if (!attempt.passed()) {
          report.minimized = candidate;
          report.result = attempt;
          progress = true;
        }
        if (report.runs >= max_runs) break;
      }
    }
  }
  return report;
}

SweepOutcome run_campaign_sweep(const reputation::IReputationModel& model,
                                const policy::IPolicy& policy,
                                const CampaignConfig& config,
                                std::uint64_t seed0, std::size_t max_seeds,
                                double budget_s) {
  SweepOutcome outcome;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < max_seeds; ++i) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (outcome.campaigns > 0 && elapsed >= budget_s) break;
    CampaignConfig cfg = config;
    cfg.seed = seed0 + i;
    const CampaignResult result = run_campaign(model, policy, cfg);
    ++outcome.campaigns;
    outcome.last_seed = cfg.seed;
    const framework::ServerStats& s = result.tallies.server;
    outcome.shed_deadline +=
        s.shed_deadline_requests + s.shed_deadline_submissions;
    outcome.shed_queue += s.shed_queue_requests + s.shed_queue_submissions;
    outcome.shed_degraded +=
        s.shed_degraded_requests + s.shed_degraded_submissions;
    outcome.timed_out += result.tallies.timed_out;
    outcome.degrade_max_level =
        std::max(outcome.degrade_max_level, result.tallies.degrade_max_level);
    outcome.watchdog_stalls += result.watchdog_stalls;
    if (!result.passed()) {
      outcome.failing_seed = cfg.seed;
      outcome.failure =
          shrink_failing_plan(model, policy, cfg, result);
      break;
    }
  }
  return outcome;
}

}  // namespace powai::sim
