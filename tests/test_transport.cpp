// Integration tests: the full seven-step protocol as encoded bytes over
// the simulated network — server endpoint, wire clients, link effects.

#include "framework/transport.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"

namespace powai::framework {
namespace {

using namespace std::chrono_literals;

constexpr const char* kServerHost = "198.51.100.250";

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : rng_(21),
        network_(loop_, net_rng_) {
    const features::SyntheticTraceGenerator gen;
    model_.fit(gen.generate(300, 300, rng_));
    benign_features_ = gen.sample(false, rng_);
    malicious_features_ = gen.sample(true, rng_);

    ServerConfig cfg;
    cfg.master_secret = common::bytes_of("transport-secret");
    server_ = std::make_unique<PowServer>(loop_.clock(), model_, policy_, cfg);
    endpoint_ = std::make_unique<ServerEndpoint>(network_, kServerHost, *server_);
  }

  common::Rng rng_;
  common::Rng net_rng_{5};
  netsim::EventLoop loop_;
  netsim::Network network_;
  reputation::DabrModel model_;
  policy::LinearPolicy policy_ = policy::LinearPolicy::policy1();
  std::unique_ptr<PowServer> server_;
  std::unique_ptr<ServerEndpoint> endpoint_;
  features::FeatureVector benign_features_;
  features::FeatureVector malicious_features_;
};

TEST_F(TransportTest, FullExchangeOverTheWire) {
  WireClientPool client(loop_, network_, "10.0.0.1", 1, kServerHost);
  std::optional<Response> got;
  common::Duration latency{};
  client.set_response_handler(
      [&](std::size_t, const Response& r, common::Duration d) {
        got = r;
        latency = d;
      });
  const std::uint64_t id = client.send_request(0, "/index", benign_features_);
  EXPECT_GT(id, 0u);
  loop_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, common::ErrorCode::kOk);
  EXPECT_EQ(got->body, "resource");
  EXPECT_EQ(got->request_id, id);
  // Four legs of ~14.5-15.5 ms default link + solve time.
  EXPECT_GT(latency, 4 * 14ms);
  EXPECT_EQ(server_->stats().served, 1u);
  EXPECT_EQ(client.challenges_solved(), 1u);
}

TEST_F(TransportTest, LatencyIncludesModelledSolveTime) {
  // Malicious features → higher difficulty → more attempts × 38 µs.
  WireClientPool good(loop_, network_, "10.0.0.1", 1, kServerHost);
  WireClientPool bad(loop_, network_, "203.0.0.1", 1, kServerHost);
  common::Duration good_latency{};
  common::Duration bad_latency{};
  int done = 0;
  good.set_response_handler(
      [&](std::size_t, const Response&, common::Duration d) {
        good_latency = d;
        ++done;
      });
  bad.set_response_handler(
      [&](std::size_t, const Response&, common::Duration d) {
        bad_latency = d;
        ++done;
      });
  good.send_request(0, "/", benign_features_);
  bad.send_request(0, "/", malicious_features_);
  loop_.run();
  ASSERT_EQ(done, 2);
  EXPECT_GT(bad_latency, good_latency);
}

TEST_F(TransportTest, ServerTrustsTransportSourceOverClaimedIp) {
  // The wire client self-reports its registered IP, but the endpoint
  // overrides with the transport-level source; a puzzle is therefore
  // bound to the true source and the exchange still succeeds end-to-end.
  WireClientPool client(loop_, network_, "10.0.0.9", 1, kServerHost);
  std::optional<Response> got;
  client.set_response_handler(
      [&](std::size_t, const Response& r, common::Duration) { got = r; });
  client.send_request(0, "/", benign_features_);
  loop_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, common::ErrorCode::kOk);
}

TEST_F(TransportTest, MalformedBytesGetNak) {
  // Raw garbage to the server from a registered host.
  std::optional<Response> got;
  network_.add_host("10.0.0.2", [&](const std::string&, common::BytesView p) {
    const auto msg = decode(p);
    ASSERT_TRUE(msg.has_value());
    got = std::get<Response>(*msg);
  });
  network_.send("10.0.0.2", kServerHost, common::bytes_of("garbage"));
  loop_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, common::ErrorCode::kMalformedMessage);
  EXPECT_EQ(endpoint_->malformed_count(), 1u);
}

TEST_F(TransportTest, UnexpectedMessageTypeCountsAsMalformed) {
  network_.add_host("10.0.0.3", [](const std::string&, common::BytesView) {});
  Response stray;  // a server should never receive a Response
  network_.send("10.0.0.3", kServerHost, stray.serialize());
  loop_.run();
  EXPECT_EQ(endpoint_->malformed_count(), 1u);
}

TEST_F(TransportTest, ManyClientsConcurrently) {
  const features::SyntheticTraceGenerator gen;
  WireClientPool clients(loop_, network_, "10.0.1.1", 12, kServerHost);
  int served = 0;
  clients.set_response_handler(
      [&](std::size_t, const Response& r, common::Duration) {
        if (r.status == common::ErrorCode::kOk) ++served;
      });
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients.send_request(c, "/", gen.sample(false, rng_));
  }
  loop_.run();
  EXPECT_EQ(served, 12);
  EXPECT_EQ(server_->stats().served, 12u);
}

TEST_F(TransportTest, SequentialRequestsReuseClient) {
  WireClientPool client(loop_, network_, "10.0.0.4", 1, kServerHost);
  int served = 0;
  client.set_response_handler(
      [&](std::size_t, const Response& r, common::Duration) {
        if (r.status == common::ErrorCode::kOk) ++served;
      });
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(client.send_request(0, "/", benign_features_), i);
    loop_.run();
  }
  EXPECT_EQ(served, 3);
  EXPECT_EQ(client.challenges_solved(), 3u);
}

TEST_F(TransportTest, DroppedRequestReturnsZeroId) {
  netsim::LinkModel black_hole;
  black_hole.loss_rate = 1.0;
  WireClientPool client(loop_, network_, "10.0.0.5", 1, kServerHost);
  network_.set_link("10.0.0.5", kServerHost, black_hole);
  bool fired = false;
  client.set_response_handler(
      [&](std::size_t, const Response&, common::Duration) { fired = true; });
  const std::uint64_t id = client.send_request(0, "/", benign_features_);
  EXPECT_EQ(id, 0u);
  loop_.run();
  EXPECT_FALSE(fired);
  // A dropped single-shot send leaves nothing in flight, so the client
  // may send again at once.
  EXPECT_EQ(client.send_request(0, "/", benign_features_), 0u);
}

TEST_F(TransportTest, RetryPolicyClosesTheDroppedSendLivenessHole) {
  // Regression for the legacy hole DroppedRequestReturnsZeroId pins:
  // without a policy a dropped send returns 0 and the callback never
  // fires. With one installed the same black-hole link must yield a
  // real id and exactly one synthetic kTimeout after max_attempts.
  netsim::LinkModel black_hole;
  black_hole.loss_rate = 1.0;
  WireClientPool client(loop_, network_, "10.0.2.1", 1, kServerHost);
  network_.set_link("10.0.2.1", kServerHost, black_hole);

  RetryPolicy policy;
  policy.enabled = true;
  policy.timeout = 200ms;
  policy.max_attempts = 3;
  policy.backoff_base = 50ms;
  policy.jitter_frac = 0.0;
  client.set_retry_policy(policy, [this](std::size_t) {
    return std::make_pair(std::string("/"), benign_features_);
  });

  int fired = 0;
  std::optional<Response> got;
  client.set_response_handler(
      [&](std::size_t, const Response& r, common::Duration) {
        got = r;
        ++fired;
      });
  const std::uint64_t id = client.send_request(0, "/", benign_features_);
  EXPECT_GT(id, 0u);
  loop_.run();
  EXPECT_EQ(fired, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, common::ErrorCode::kTimeout);
  EXPECT_EQ(got->request_id, id);
}

TEST_F(TransportTest, RetriesResolveEveryRequestOverALossyLink) {
  // Heavy random loss in both directions: every send_request must still
  // resolve exactly once, and all attempts of one request must draw a
  // challenge with the same stable puzzle id — the keyed derivation
  // that lets the replay cache catch a re-submission, so a retried
  // request can never be double-served. Eight clients keep eight
  // requests in flight at once.
  constexpr std::size_t kRequests = 8;
  WireClientPool clients(loop_, network_, "10.0.2.2", kRequests, kServerHost);
  netsim::LinkModel lossy;
  lossy.loss_rate = 0.25;
  for (std::size_t c = 0; c < kRequests; ++c) {
    network_.set_link(clients.ip_of(c), kServerHost, lossy);
    network_.set_link(kServerHost, clients.ip_of(c), lossy);
  }

  RetryPolicy policy;
  policy.enabled = true;
  policy.timeout = 500ms;
  policy.max_attempts = 6;
  policy.backoff_base = 20ms;
  policy.jitter_seed = 3;
  clients.set_retry_policy(policy, [this](std::size_t) {
    return std::make_pair(std::string("/"), benign_features_);
  });

  std::vector<std::optional<std::uint64_t>> first_challenge(kRequests);
  clients.set_challenge_observer([&](std::size_t c, const Challenge& ch) {
    if (!first_challenge[c]) {
      first_challenge[c] = ch.puzzle.puzzle_id;
    } else {
      EXPECT_EQ(*first_challenge[c], ch.puzzle.puzzle_id)
          << "retry drew a different puzzle identity";
    }
  });

  std::vector<int> resolved(kRequests, 0);
  int ok = 0;
  clients.set_response_handler(
      [&](std::size_t c, const Response& r, common::Duration) {
        ++resolved[c];
        if (r.status == common::ErrorCode::kOk) ++ok;
        // kReplay is the double-serve guard doing its job: the first
        // attempt was served but its response got dropped, and the
        // retried submission is refused instead of served again.
        EXPECT_TRUE(r.status == common::ErrorCode::kOk ||
                    r.status == common::ErrorCode::kTimeout ||
                    r.status == common::ErrorCode::kReplay)
            << static_cast<int>(r.status);
      });
  for (std::size_t c = 0; c < kRequests; ++c) {
    EXPECT_GT(clients.send_request(c, "/", benign_features_), 0u);
  }
  loop_.run();
  // Liveness: nothing hangs, ever, and nothing resolves twice.
  for (std::size_t c = 0; c < kRequests; ++c) {
    EXPECT_EQ(resolved[c], 1) << "client " << c;
  }
  // With 25% per-leg loss and 6 attempts the odds of all eight timing
  // out are negligible; a zero here means retries are not resending.
  EXPECT_GT(ok, 0);
  EXPECT_LE(server_->stats().served, static_cast<std::uint64_t>(kRequests));
}

TEST_F(TransportTest, PooledClientsRetryOverALossyLinkToo) {
  // Same liveness contract when the loss comes from the default link
  // the whole group shares rather than from per-client links: the
  // response handler fires exactly once per send.
  netsim::LinkModel lossy;
  lossy.loss_rate = 0.2;
  network_.set_default_link(lossy);

  WireClientPool pool(loop_, network_, "10.1.0.0", 4, kServerHost);
  RetryPolicy policy;
  policy.enabled = true;
  policy.timeout = 500ms;
  policy.max_attempts = 6;
  policy.backoff_base = 20ms;
  policy.jitter_seed = 5;
  pool.set_retry_policy(policy, [this](std::size_t) {
    return std::make_pair(std::string("/"), benign_features_);
  });

  std::vector<int> resolved(pool.size(), 0);
  pool.set_response_handler(
      [&](std::size_t client, const Response& r, common::Duration) {
        ++resolved[client];
        EXPECT_TRUE(r.status == common::ErrorCode::kOk ||
                    r.status == common::ErrorCode::kTimeout ||
                    r.status == common::ErrorCode::kReplay);
      });
  for (std::size_t c = 0; c < pool.size(); ++c) {
    EXPECT_GT(pool.send_request(c, "/", benign_features_), 0u);
  }
  loop_.run();
  for (std::size_t c = 0; c < pool.size(); ++c) {
    EXPECT_EQ(resolved[c], 1) << "client " << c;
  }
}

TEST_F(TransportTest, AbandonFromTheChallengeObserverDropsTheRequest) {
  // A client that takes a challenge and never submits: abandon() from
  // inside the challenge observer leaves the challenge unsolved, fires
  // no handler (not even a retry-policy kTimeout later), sends nothing,
  // and frees the slot for the next request.
  WireClientPool client(loop_, network_, "10.0.3.1", 1, kServerHost);
  RetryPolicy policy;
  policy.enabled = true;
  policy.timeout = 200ms;
  policy.max_attempts = 2;
  client.set_retry_policy(policy, [this](std::size_t) {
    return std::make_pair(std::string("/"), benign_features_);
  });
  int fired = 0;
  std::optional<Response> got;
  client.set_response_handler(
      [&](std::size_t, const Response& r, common::Duration) {
        got = r;
        ++fired;
      });
  int submissions = 0;
  client.set_submission_observer(
      [&](std::size_t, const Submission&, bool) { ++submissions; });
  bool desert = true;
  client.set_challenge_observer([&](std::size_t c, const Challenge&) {
    if (desert) client.abandon(c);
  });

  EXPECT_EQ(client.send_request(0, "/", benign_features_), 1u);
  loop_.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(submissions, 0);
  EXPECT_EQ(client.challenges_solved(), 0u);
  EXPECT_EQ(server_->stats().challenges_issued, 1u);
  EXPECT_EQ(server_->stats().served, 0u);

  desert = false;
  EXPECT_EQ(client.send_request(0, "/", benign_features_), 2u);
  loop_.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(submissions, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->request_id, 2u);
  EXPECT_EQ(got->status, common::ErrorCode::kOk);
}

TEST_F(TransportTest, ReplayedSubmissionAnswerReachesTheStrayObserver) {
  // Re-sending a redeemed submission draws a kReplay for a request that
  // is no longer in flight: the stray observer sees it, the response
  // handler does not.
  WireClientPool client(loop_, network_, "10.0.3.2", 1, kServerHost);
  int fired = 0;
  client.set_response_handler(
      [&](std::size_t, const Response&, common::Duration) { ++fired; });
  std::optional<Submission> submitted;
  client.set_submission_observer(
      [&](std::size_t, const Submission& submission, bool sent) {
        EXPECT_TRUE(sent);
        submitted = submission;
      });
  std::vector<Response> strays;
  client.set_stray_observer(
      [&](std::size_t c, const Response& r) {
        EXPECT_EQ(c, 0u);
        strays.push_back(r);
      });

  const std::uint64_t id = client.send_request(0, "/", benign_features_);
  loop_.run();
  ASSERT_EQ(fired, 1);
  ASSERT_TRUE(submitted.has_value());
  EXPECT_EQ(submitted->request_id, id);
  EXPECT_TRUE(strays.empty());

  network_.send(client.ip_of(0), kServerHost, submitted->serialize());
  loop_.run();
  EXPECT_EQ(fired, 1);
  ASSERT_EQ(strays.size(), 1u);
  EXPECT_EQ(strays[0].request_id, id);
  EXPECT_EQ(strays[0].status, common::ErrorCode::kReplay);
  EXPECT_EQ(server_->stats().rejected_replay, 1u);
}

TEST_F(TransportTest, SubmissionObserverReportsALostSubmission) {
  // The request and challenge get through; then the link turns into a
  // black hole, so the submission is dropped at send. Single-shot, the
  // request hangs and only the observer can tell.
  WireClientPool client(loop_, network_, "10.0.3.3", 1, kServerHost);
  int fired = 0;
  client.set_response_handler(
      [&](std::size_t, const Response&, common::Duration) { ++fired; });
  netsim::LinkModel black_hole;
  black_hole.loss_rate = 1.0;
  client.set_challenge_observer([&](std::size_t c, const Challenge&) {
    network_.set_link(client.ip_of(c), kServerHost, black_hole);
  });
  std::vector<bool> sent;
  std::uint64_t submitted_id = 0;
  client.set_submission_observer(
      [&](std::size_t, const Submission& submission, bool was_sent) {
        sent.push_back(was_sent);
        submitted_id = submission.request_id;
      });

  const std::uint64_t id = client.send_request(0, "/", benign_features_);
  loop_.run();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_FALSE(sent[0]);
  EXPECT_EQ(submitted_id, id);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(server_->stats().served, 0u);
}

TEST_F(TransportTest, PowDisabledServerAnswersDirectly) {
  ServerConfig cfg;
  cfg.master_secret = common::bytes_of("transport-secret-2");
  cfg.pow_enabled = false;
  PowServer baseline(loop_.clock(), model_, policy_, cfg);
  ServerEndpoint baseline_endpoint(network_, "198.51.100.251", baseline);

  WireClientPool client(loop_, network_, "10.0.0.6", 1, "198.51.100.251");
  std::optional<Response> got;
  client.set_response_handler(
      [&](std::size_t, const Response& r, common::Duration) { got = r; });
  client.send_request(0, "/", benign_features_);
  loop_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, common::ErrorCode::kOk);
  EXPECT_EQ(client.challenges_solved(), 0u);  // no puzzle was involved
}

}  // namespace
}  // namespace powai::framework
