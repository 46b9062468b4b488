// Integration tests for the asynchronous transport front end: the
// queue-draining batch bridge between the simulated wire and the
// PowServer batch entry points. Pins the three contracts the
// architecture promises (docs/ARCHITECTURE.md):
//   1. determinism — an async run produces exactly the totals of the
//      synchronous in-process shim;
//   2. backpressure — a full queue yields explicit kUnavailable answers,
//      counted in ServerStats, never silent drops;
//   3. conservation — across bursts and drains every message is
//      answered exactly once (exactly-once submission accounting).
// Runs under TSan via the `concurrency` label.

#include "framework/async_front_end.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "framework/transport.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"
#include "sim/load_harness.hpp"

namespace powai::framework {
namespace {

using namespace std::chrono_literals;

constexpr const char* kServerHost = "198.51.100.250";

class AsyncFrontEndTest : public ::testing::Test {
 protected:
  AsyncFrontEndTest() : rng_(21), network_(loop_, net_rng_) {
    // Deterministic wire: every same-instant burst stays one instant.
    netsim::LinkModel link;
    link.base_latency = 15ms;
    link.jitter = common::Duration::zero();
    network_.set_default_link(link);

    const features::SyntheticTraceGenerator gen;
    model_.fit(gen.generate(300, 300, rng_));
    benign_features_ = gen.sample(false, rng_);

    ServerConfig cfg;
    cfg.master_secret = common::bytes_of("async-front-end-secret");
    server_ = std::make_unique<PowServer>(loop_.clock(), model_, policy_, cfg);
  }

  /// Builds the async path (front end + endpoint) with the given knobs.
  void build_front_end(AsyncFrontEndConfig cfg) {
    front_end_ = std::make_unique<AsyncFrontEnd>(loop_, network_, kServerHost,
                                                 *server_, cfg);
    endpoint_ = std::make_unique<ServerEndpoint>(network_, kServerHost,
                                                 *server_, *front_end_);
  }

  /// Counts \p clients' kOk answers into \p served and sends one benign
  /// request from each client.
  void send_from_each(WireClientPool& clients, int& served) const {
    clients.set_response_handler(
        [&served](std::size_t, const Response& r, common::Duration) {
          if (r.status == common::ErrorCode::kOk) ++served;
        });
    for (std::size_t c = 0; c < clients.size(); ++c) {
      clients.send_request(c, "/", benign_features_);
    }
  }

  common::Rng rng_;
  common::Rng net_rng_{5};
  netsim::EventLoop loop_;
  netsim::Network network_;
  reputation::DabrModel model_;
  policy::LinearPolicy policy_ = policy::LinearPolicy::policy1();
  std::unique_ptr<PowServer> server_;
  std::unique_ptr<AsyncFrontEnd> front_end_;
  std::unique_ptr<ServerEndpoint> endpoint_;
  features::FeatureVector benign_features_;
};

TEST_F(AsyncFrontEndTest, FullExchangeThroughAsyncPath) {
  build_front_end({});
  WireClientPool client(loop_, network_, "10.0.0.1", 1, kServerHost);
  std::optional<Response> got;
  client.set_response_handler(
      [&](std::size_t, const Response& r, common::Duration) { got = r; });
  const std::uint64_t id = client.send_request(0, "/index", benign_features_);
  EXPECT_GT(id, 0u);
  front_end_->run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, common::ErrorCode::kOk);
  EXPECT_EQ(got->request_id, id);
  EXPECT_EQ(got->body, "resource");
  EXPECT_EQ(server_->stats().served, 1u);
  EXPECT_TRUE(front_end_->idle());
  const FrontEndStats fs = front_end_->stats();
  EXPECT_EQ(fs.requests, 1u);
  EXPECT_EQ(fs.submissions, 1u);
  EXPECT_EQ(fs.messages, 2u);
}

TEST_F(AsyncFrontEndTest, SameInstantBurstBecomesOneBatch) {
  // Paused drain: all 6 requests arrive at one instant and sit in the
  // queue, so the adaptive pop takes them as a single batch.
  AsyncFrontEndConfig cfg;
  cfg.start_paused = true;
  build_front_end(cfg);
  WireClientPool clients(loop_, network_, "10.0.1.1", 6, kServerHost);
  int served = 0;
  send_from_each(clients, served);
  loop_.run();  // burst lands in the queue while the drain is paused
  EXPECT_EQ(front_end_->queued(), 6u);
  front_end_->run_until_idle();
  EXPECT_EQ(served, 6);
  EXPECT_EQ(front_end_->stats().largest_batch, 6u);
}

TEST_F(AsyncFrontEndTest, MaxBatchCapsOneDispatch) {
  AsyncFrontEndConfig cfg;
  cfg.max_batch = 3;
  cfg.start_paused = true;
  build_front_end(cfg);
  WireClientPool clients(loop_, network_, "10.0.1.1", 8, kServerHost);
  int served = 0;
  send_from_each(clients, served);
  loop_.run();  // burst lands in the queue while the drain is paused
  front_end_->run_until_idle();
  EXPECT_EQ(served, 8);
  const FrontEndStats fs = front_end_->stats();
  EXPECT_LE(fs.largest_batch, 3u);
  EXPECT_EQ(fs.messages, 16u);  // 8 requests + 8 submissions
}

TEST_F(AsyncFrontEndTest, EventCountIsIndependentOfBatchBoundaries) {
  // Two requests queued for one instant reach the server as one batch at
  // max_batch 64 and as two batches at max_batch 1. How the drain cut
  // them must not show anywhere: not in run_until_idle()'s event count,
  // not in the server ledger, not in what the clients get.
  struct Outcome {
    std::size_t events = 0;
    std::size_t largest_batch = 0;
    ServerStats stats;
    int served = 0;
  };
  const auto run = [&](std::size_t max_batch) {
    netsim::EventLoop loop;
    common::Rng net_rng(5);
    netsim::Network network(loop, net_rng);
    netsim::LinkModel link;
    link.base_latency = 15ms;
    link.jitter = common::Duration::zero();
    network.set_default_link(link);
    ServerConfig cfg;
    cfg.master_secret = common::bytes_of("batch-boundary-secret");
    PowServer server(loop.clock(), model_, policy_, cfg);
    AsyncFrontEndConfig fc;
    fc.max_batch = max_batch;
    fc.start_paused = true;
    AsyncFrontEnd front_end(loop, network, kServerHost, server, fc);
    ServerEndpoint endpoint(network, kServerHost, server, front_end);
    WireClientPool clients(loop, network, "10.0.7.1", 2, kServerHost);

    Outcome out;
    send_from_each(clients, out.served);
    out.events = loop.run();  // both requests queued, drain paused
    EXPECT_EQ(front_end.queued(), 2u);
    out.events += front_end.run_until_idle();
    out.largest_batch = front_end.stats().largest_batch;
    out.stats = server.stats();
    return out;
  };

  const Outcome one = run(1);
  const Outcome wide = run(64);
  EXPECT_EQ(one.largest_batch, 1u);
  EXPECT_EQ(wide.largest_batch, 2u);  // the case really batched
  EXPECT_EQ(wide.events, one.events);
  EXPECT_EQ(wide.stats, one.stats);
  EXPECT_EQ(one.served, 2);
  EXPECT_EQ(wide.served, one.served);
}

TEST_F(AsyncFrontEndTest, QueueFullAnswersOverloadExactly) {
  // 6 same-instant requests against a capacity-2 queue with the drain
  // paused: exactly 2 accepted, exactly 4 refused with kUnavailable —
  // deterministically, no silent drops.
  AsyncFrontEndConfig cfg;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;
  build_front_end(cfg);
  WireClientPool clients(loop_, network_, "10.0.2.1", 6, kServerHost);
  int served = 0;
  int overloaded = 0;
  int answered = 0;
  std::vector<int> answers_per_client(clients.size(), 0);
  clients.set_response_handler(
      [&](std::size_t c, const Response& r, common::Duration) {
        ++answered;
        ++answers_per_client[c];
        if (r.status == common::ErrorCode::kOk) ++served;
        if (r.status == common::ErrorCode::kUnavailable) ++overloaded;
      });
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients.send_request(c, "/", benign_features_);
  }
  // Deliver the burst while nothing drains: the overload NAKs are
  // already en route before the front end ever runs.
  loop_.run();
  EXPECT_EQ(overloaded, 4);
  EXPECT_EQ(server_->stats().rejected_overload, 4u);
  EXPECT_EQ(front_end_->overflows(), 4u);

  // Drain the backlog: the two accepted requests complete end to end.
  front_end_->run_until_idle();
  EXPECT_EQ(served, 2);
  EXPECT_EQ(answered, 6);
  for (const int n : answers_per_client) EXPECT_EQ(n, 1);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.rejected_overload, 4u);
  EXPECT_EQ(stats.challenges_issued, 2u);
}

TEST_F(AsyncFrontEndTest, DrainAfterBurstLosesAndDuplicatesNothing) {
  // Capacity comfortably above the burst: every message must be
  // answered exactly once once the backlog drains.
  AsyncFrontEndConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 4;
  cfg.start_paused = true;
  build_front_end(cfg);
  constexpr int kClients = 12;
  WireClientPool clients(loop_, network_, "10.0.3.1", kClients, kServerHost);
  std::vector<int> answers_per_client(kClients, 0);
  int served = 0;
  clients.set_response_handler(
      [&](std::size_t c, const Response& r, common::Duration) {
        ++answers_per_client[c];
        if (r.status == common::ErrorCode::kOk) ++served;
      });
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients.send_request(c, "/", benign_features_);
  }
  loop_.run();  // burst queued, nothing processed yet
  EXPECT_EQ(front_end_->queued(), static_cast<std::size_t>(kClients));
  front_end_->run_until_idle();

  EXPECT_EQ(served, kClients);
  for (const int n : answers_per_client) EXPECT_EQ(n, 1);
  const ServerStats stats = server_->stats();
  // Exactly-once submission accounting end to end: every challenge was
  // redeemed exactly once, nothing replayed, nothing dropped.
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.challenges_issued, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.served, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.rejected_replay, 0u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_TRUE(front_end_->idle());
  EXPECT_EQ(front_end_->in_flight(), 0u);
}

TEST_F(AsyncFrontEndTest, AsyncTotalsMatchSynchronousTransportExactly) {
  // The acceptance invariant: the same wire workload through the
  // synchronous shim and through the async front end, identical totals.
  const features::SyntheticTraceGenerator gen;
  common::Rng frng(33);
  std::vector<features::FeatureVector> features;
  for (int i = 0; i < 5; ++i) features.push_back(gen.sample(i % 2 == 1, frng));

  const auto run = [&](bool async, std::size_t verify_threads) {
    ServerConfig cfg;
    cfg.master_secret = common::bytes_of("match-secret");
    cfg.verify_threads = verify_threads;
    sim::WireLoadConfig wc;
    wc.clients = 6;
    wc.requests_per_client = 5;
    wc.async = async;
    wc.front_end.max_batch = 4;
    return sim::run_wire_load(model_, policy_, cfg, features, wc);
  };

  const sim::WireLoadReport sync_run = run(false, 1);
  const sim::WireLoadReport async_run = run(true, 2);

  EXPECT_EQ(sync_run.answered, 30u);
  EXPECT_EQ(async_run.answered, sync_run.answered);
  EXPECT_EQ(async_run.served, sync_run.served);
  EXPECT_EQ(async_run.unanswered, 0u);
  const ServerStats& s = sync_run.server_delta;
  const ServerStats& a = async_run.server_delta;
  EXPECT_EQ(a.requests, s.requests);
  EXPECT_EQ(a.challenges_issued, s.challenges_issued);
  EXPECT_EQ(a.served, s.served);
  EXPECT_EQ(a.difficulty_sum, s.difficulty_sum);
  EXPECT_EQ(a.rejected_rate_limited, s.rejected_rate_limited);
  EXPECT_EQ(a.rejected_bad_solution, s.rejected_bad_solution);
  EXPECT_EQ(a.rejected_replay, s.rejected_replay);
  EXPECT_EQ(a.rejected_overload, 0u);
  // Same wire conversation, not merely the same totals. Since PR 4 the
  // simulated *duration* matches too: puzzle seeds are keyed per id
  // rather than chained, so batch issue order cannot permute anyone's
  // puzzle (or solve time) anymore.
  EXPECT_EQ(async_run.messages_sent, sync_run.messages_sent);
  EXPECT_EQ(async_run.sim_elapsed, sync_run.sim_elapsed);
}

TEST_F(AsyncFrontEndTest, ShardedDrainMatchesSingleDrainExactly) {
  // drain_shards only changes which thread pops a message, never what
  // any client receives: totals, conversation length, and simulated
  // duration must all match the single-drainer run.
  const features::SyntheticTraceGenerator gen;
  common::Rng frng(91);
  std::vector<features::FeatureVector> features;
  for (int i = 0; i < 4; ++i) features.push_back(gen.sample(i % 2 == 1, frng));

  const auto run = [&](std::size_t drain_shards) {
    ServerConfig cfg;
    cfg.master_secret = common::bytes_of("shard-match-secret");
    cfg.verify_threads = 2;
    sim::WireLoadConfig wc;
    wc.clients = 7;
    wc.requests_per_client = 4;
    wc.async = true;
    wc.front_end.max_batch = 3;
    wc.front_end.drain_shards = drain_shards;
    return sim::run_wire_load(model_, policy_, cfg, features, wc);
  };

  const sim::WireLoadReport one = run(1);
  const sim::WireLoadReport four = run(4);
  EXPECT_EQ(one.answered, 28u);
  EXPECT_EQ(four.answered, one.answered);
  EXPECT_EQ(four.served, one.served);
  EXPECT_EQ(four.messages_sent, one.messages_sent);
  EXPECT_EQ(four.sim_elapsed, one.sim_elapsed);
  EXPECT_EQ(four.server_delta.difficulty_sum, one.server_delta.difficulty_sum);
}

TEST_F(AsyncFrontEndTest, ShardConfigValidated) {
  // Raw front ends (no endpoint — the network host can register once).
  AsyncFrontEndConfig cfg;
  cfg.queue_capacity = 2;
  cfg.drain_shards = 4;  // capacity cannot feed every shard
  EXPECT_THROW(
      AsyncFrontEnd(loop_, network_, kServerHost, *server_, cfg),
      std::invalid_argument);
  cfg.queue_capacity = 4;
  EXPECT_EQ(AsyncFrontEnd(loop_, network_, kServerHost, *server_, cfg)
                .shard_count(),
            4u);
  cfg.drain_shards = 0;  // treated as 1
  EXPECT_EQ(AsyncFrontEnd(loop_, network_, kServerHost, *server_, cfg)
                .shard_count(),
            1u);
}

TEST_F(AsyncFrontEndTest, ClosedLoopWithBackpressureConservesEveryMessage) {
  // Tiny queue + many clients: overloads interleave with successes over
  // several closed-loop rounds; the ledger must still balance exactly.
  const std::vector<features::FeatureVector> features{benign_features_};
  ServerConfig cfg;
  cfg.master_secret = common::bytes_of("conserve-secret");
  sim::WireLoadConfig wc;
  wc.clients = 8;
  wc.requests_per_client = 4;
  wc.async = true;
  wc.front_end.queue_capacity = 1;
  wc.front_end.max_batch = 2;
  // Staged: run_wire_load plays the wire against the paused drain
  // first, so the pile-up (and therefore every total) is deterministic:
  // one client's request is accepted, the others burn all their rounds
  // on overload NAKs, then the drain completes the accepted client.
  wc.front_end.start_paused = true;
  const sim::WireLoadReport report =
      sim::run_wire_load(model_, policy_, cfg, features, wc);

  EXPECT_EQ(report.sent, 32u);
  EXPECT_EQ(report.answered, report.sent);
  EXPECT_EQ(report.unanswered, 0u);
  EXPECT_EQ(report.served + report.overloaded + report.rejected,
            report.answered);
  EXPECT_EQ(report.served, 4u);       // the one accepted client's rounds
  EXPECT_EQ(report.overloaded, 28u);  // everyone else's, exactly
  // Client-observed refusals and the server ledger agree exactly.
  EXPECT_EQ(report.server_delta.rejected_overload, report.overloaded);
  EXPECT_EQ(report.server_delta.served, report.served);
  EXPECT_EQ(report.server_delta.rejected_replay, 0u);
}

TEST_F(AsyncFrontEndTest, QueuePopShedsDeadlinesThatExpireWhileQueued) {
  // The pop-time shed branch is structurally unreachable under the
  // frozen-clock pump (pop == push instant), so drive it with
  // hand-stamped requests: one whose deadline falls between enqueue and
  // pop (the queue must shed it, kUnavailable, zero server work) and
  // one already expired on arrival (must flow through to the server,
  // which sheds it itself — the parity rule that keeps async and sync
  // ledgers identical).
  AsyncFrontEndConfig cfg;
  cfg.start_paused = true;
  build_front_end(cfg);

  std::vector<Response> got;
  network_.add_host("10.0.5.1", [&](const std::string&, common::BytesView p) {
    const auto msg = decode(p);
    if (msg.has_value()) got.push_back(std::get<Response>(*msg));
  });

  const ServerStats before = server_->stats();
  Request queued_expiry;  // enqueues at t=15ms; deadline 50ms < pop time
  queued_expiry.client_ip = "10.0.5.1";
  queued_expiry.features = benign_features_;
  queued_expiry.request_id = 1;
  queued_expiry.deadline_ms = 50;
  Request dead_on_arrival;  // deadline 5ms already behind the enqueue
  dead_on_arrival.client_ip = "10.0.5.1";
  dead_on_arrival.features = benign_features_;
  dead_on_arrival.request_id = 2;
  dead_on_arrival.deadline_ms = 5;
  (void)network_.send("10.0.5.1", kServerHost, queued_expiry.serialize());
  (void)network_.send("10.0.5.1", kServerHost, dead_on_arrival.serialize());
  loop_.run();  // both queued while the drain is paused
  EXPECT_EQ(front_end_->queued(), 2u);

  loop_.schedule_in(100ms, [] {});
  loop_.run();  // advance sim time past both deadlines before the pop
  front_end_->run_until_idle();

  ASSERT_EQ(got.size(), 2u);
  for (const Response& r : got) {
    EXPECT_EQ(r.status, common::ErrorCode::kUnavailable);
    EXPECT_GT(r.retry_after_ms, 0u);
    if (r.request_id == 1) {
      EXPECT_EQ(r.body, "deadline expired in queue");  // queue shed it
    } else {
      EXPECT_EQ(r.request_id, 2u);  // the server shed this one
    }
  }
  EXPECT_EQ(front_end_->stats().expired_dropped, 1u);
  const ServerStats delta = server_->stats() - before;
  EXPECT_EQ(delta.shed_queue_requests, 1u);
  EXPECT_EQ(delta.shed_deadline_requests, 1u);
  EXPECT_EQ(delta.challenges_issued, 0u);  // dead work never scored
}

TEST_F(AsyncFrontEndTest, FarFutureClientDeadlineIsStillShedInQueue) {
  // The client stamps the latest representable deadline; the server's
  // default_deadline caps it at admission, so a request that waits in
  // the queue past arrival + default_deadline is shed like any other.
  ServerConfig server_cfg;
  server_cfg.master_secret = common::bytes_of("async-front-end-secret");
  server_cfg.default_deadline = 20ms;
  server_ = std::make_unique<PowServer>(loop_.clock(), model_, policy_,
                                        server_cfg);
  AsyncFrontEndConfig cfg;
  cfg.start_paused = true;
  build_front_end(cfg);

  std::optional<Response> answer;
  std::size_t challenges = 0;
  network_.add_host("10.0.5.2", [&](const std::string&, common::BytesView p) {
    const auto msg = decode(p);
    if (!msg.has_value()) return;
    if (const auto* r = std::get_if<Response>(&*msg)) {
      answer = *r;
    } else {
      ++challenges;
    }
  });

  const ServerStats before = server_->stats();
  Request request;
  request.client_ip = "10.0.5.2";
  request.features = benign_features_;
  request.request_id = 1;
  request.deadline_ms = std::numeric_limits<std::int64_t>::max();
  (void)network_.send("10.0.5.2", kServerHost, request.serialize());
  loop_.run();  // queued while the drain is paused
  loop_.schedule_in(100ms, [] {});
  loop_.run();  // wait well past arrival + default_deadline
  front_end_->run_until_idle();

  EXPECT_EQ(challenges, 0u);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->status, common::ErrorCode::kUnavailable);
  EXPECT_EQ(answer->body, "deadline expired in queue");
  const ServerStats delta = server_->stats() - before;
  EXPECT_EQ(delta.shed_queue_requests, 1u);
  EXPECT_EQ(delta.challenges_issued, 0u);
}

TEST_F(AsyncFrontEndTest, ExpiredSubmissionsUnderShardedDrainCountExactly) {
  // rejected_expired under a sharded drain: a verifier TTL far below
  // the wire round-trip ages out every solution in flight, across two
  // drain shards and a pooled verifier. Each client must still get
  // exactly one kExpired answer and the counter must match exactly —
  // no shard may lose or double-count an expiry.
  ServerConfig server_cfg;
  server_cfg.master_secret = common::bytes_of("async-front-end-secret");
  server_cfg.verifier.ttl = 1ms;
  server_cfg.verify_threads = 2;
  server_ = std::make_unique<PowServer>(loop_.clock(), model_, policy_,
                                        server_cfg);
  AsyncFrontEndConfig cfg;
  cfg.drain_shards = 2;
  cfg.queue_capacity = 64;
  build_front_end(cfg);

  constexpr int kClients = 6;
  const ServerStats before = server_->stats();
  WireClientPool clients(loop_, network_, "10.0.6.1", kClients, kServerHost);
  std::vector<int> answers(kClients, 0);
  int expired = 0;
  clients.set_response_handler(
      [&](std::size_t c, const Response& r, common::Duration) {
        ++answers[c];
        if (r.status == common::ErrorCode::kExpired) ++expired;
      });
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients.send_request(c, "/", benign_features_);
  }
  front_end_->run_until_idle();

  EXPECT_EQ(expired, kClients);
  for (const int n : answers) EXPECT_EQ(n, 1);
  const ServerStats delta = server_->stats() - before;
  EXPECT_EQ(delta.rejected_expired, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(delta.served, 0u);
  EXPECT_EQ(delta.challenges_issued, static_cast<std::uint64_t>(kClients));
  const FrontEndStats fs = front_end_->stats();
  EXPECT_EQ(fs.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(fs.submissions, static_cast<std::uint64_t>(kClients));
}

TEST_F(AsyncFrontEndTest, MalformedCountReadableWhileServing) {
  // Regression: malformed_ was a plain uint64 written on the event-loop
  // thread; with completions on pool threads a monitoring read races.
  // Atomic now — this test puts a polling reader next to live traffic
  // and relies on the TSan job to prove the claim.
  build_front_end({});
  network_.add_host("203.0.0.66",
                    [](const std::string&, common::BytesView) {});
  for (int i = 0; i < 50; ++i) {
    loop_.schedule_in(std::chrono::milliseconds(i), [this] {
      (void)network_.send("203.0.0.66", kServerHost,
                          common::bytes_of("garbage"));
    });
  }
  WireClientPool client(loop_, network_, "10.0.4.1", 1, kServerHost);
  int served = 0;
  send_from_each(client, served);

  std::atomic<bool> done{false};
  std::uint64_t observed = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      observed = std::max(observed, endpoint_->malformed_count());
      std::this_thread::yield();
    }
  });
  front_end_->run_until_idle();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(endpoint_->malformed_count(), 50u);
  EXPECT_LE(observed, 50u);
  EXPECT_EQ(served, 1);
}

}  // namespace
}  // namespace powai::framework
