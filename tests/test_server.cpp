// Tests for the PowServer pipeline (Fig. 1 wiring) and PowClient round
// trips: the paper's end-to-end behaviour in-process.

#include "framework/server.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/clock.hpp"
#include "features/synthetic.hpp"
#include "framework/client.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"

namespace powai::framework {
namespace {

using namespace std::chrono_literals;

/// Fixture: a trained DAbR, a Policy-2 server, and feature samples.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(42);
    const features::SyntheticTraceGenerator gen;
    model_.fit(gen.generate(400, 400, rng));
    benign_features_ = gen.sample(false, rng);
    malicious_features_ = gen.sample(true, rng);
  }

  ServerConfig base_config() {
    ServerConfig cfg;
    cfg.master_secret = common::bytes_of("server-test-secret");
    return cfg;
  }

  common::ManualClock clock_;
  reputation::DabrModel model_;
  policy::LinearPolicy policy_ = policy::LinearPolicy::policy2();
  features::FeatureVector benign_features_;
  features::FeatureVector malicious_features_;
};

TEST_F(ServerTest, RequiresFittedModel) {
  reputation::DabrModel unfitted;
  EXPECT_THROW(PowServer(clock_, unfitted, policy_, base_config()),
               std::invalid_argument);
}

TEST_F(ServerTest, IssuesChallengeForValidRequest) {
  PowServer server(clock_, model_, policy_, base_config());
  PowClient client("10.0.0.1");
  const Request request = client.make_request("/", benign_features_);
  auto outcome = server.on_request(request);
  ASSERT_TRUE(std::holds_alternative<Challenge>(outcome));
  const auto& challenge = std::get<Challenge>(outcome);
  EXPECT_EQ(challenge.request_id, request.request_id);
  EXPECT_EQ(challenge.puzzle.client_binding, "10.0.0.1");
  EXPECT_GE(challenge.puzzle.difficulty, 5u);  // policy2 floor
  EXPECT_EQ(server.stats().challenges_issued, 1u);
}

TEST_F(ServerTest, MaliciousFeaturesGetHarderPuzzles) {
  ServerConfig cfg = base_config();
  cfg.reputation_cache_enabled = false;
  PowServer server(clock_, model_, policy_, cfg);
  PowClient benign("10.0.0.1");
  PowClient bot("203.0.0.1");

  auto c1 = server.on_request(benign.make_request("/", benign_features_));
  const unsigned d_benign = std::get<Challenge>(c1).puzzle.difficulty;
  auto c2 = server.on_request(bot.make_request("/", malicious_features_));
  const unsigned d_bot = std::get<Challenge>(c2).puzzle.difficulty;
  EXPECT_GT(d_bot, d_benign);
}

TEST_F(ServerTest, RejectsUnparsableIp) {
  PowServer server(clock_, model_, policy_, base_config());
  Request request;
  request.client_ip = "not-an-ip";
  request.features = benign_features_;
  auto outcome = server.on_request(request);
  ASSERT_TRUE(std::holds_alternative<Response>(outcome));
  EXPECT_EQ(std::get<Response>(outcome).status,
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.stats().rejected_malformed, 1u);
}

TEST_F(ServerTest, PowDisabledServesImmediately) {
  ServerConfig cfg = base_config();
  cfg.pow_enabled = false;
  cfg.resource_body = "baseline";
  PowServer server(clock_, model_, policy_, cfg);
  PowClient client("10.0.0.1");
  auto outcome = server.on_request(client.make_request("/", benign_features_));
  ASSERT_TRUE(std::holds_alternative<Response>(outcome));
  const auto& response = std::get<Response>(outcome);
  EXPECT_EQ(response.status, common::ErrorCode::kOk);
  EXPECT_EQ(response.body, "baseline");
  EXPECT_EQ(server.stats().served_without_pow, 1u);
}

TEST_F(ServerTest, FullRoundTripServesResource) {
  PowServer server(clock_, model_, policy_, base_config());
  PowClient client("10.0.0.1");
  const RoundTrip trip = client.run(server, "/data", benign_features_);
  EXPECT_TRUE(trip.served);
  EXPECT_EQ(trip.response.status, common::ErrorCode::kOk);
  EXPECT_EQ(trip.response.body, "resource");
  EXPECT_GT(trip.attempts, 0u);
  EXPECT_GE(trip.difficulty, 5u);
  EXPECT_EQ(server.stats().served, 1u);
}

TEST_F(ServerTest, SubmissionFromWrongIpRejected) {
  PowServer server(clock_, model_, policy_, base_config());
  PowClient client("10.0.0.1");
  const Request request = client.make_request("/", benign_features_);
  auto outcome = server.on_request(request);
  const auto& challenge = std::get<Challenge>(outcome);
  const auto solved = client.solve(challenge);
  ASSERT_TRUE(solved.solved);
  const Response response =
      server.on_submission(solved.submission, "203.0.113.99");
  EXPECT_EQ(response.status, common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.stats().rejected_binding, 1u);
}

TEST_F(ServerTest, ReplayedSubmissionRejected) {
  PowServer server(clock_, model_, policy_, base_config());
  PowClient client("10.0.0.1");
  const Request request = client.make_request("/", benign_features_);
  auto outcome = server.on_request(request);
  const auto solved = client.solve(std::get<Challenge>(outcome));
  ASSERT_TRUE(solved.solved);
  EXPECT_EQ(server.on_submission(solved.submission, "10.0.0.1").status,
            common::ErrorCode::kOk);
  EXPECT_EQ(server.on_submission(solved.submission, "10.0.0.1").status,
            common::ErrorCode::kReplay);
  EXPECT_EQ(server.stats().rejected_replay, 1u);
}

TEST_F(ServerTest, ExpiredSubmissionRejected) {
  ServerConfig cfg = base_config();
  cfg.verifier.ttl = 10s;
  PowServer server(clock_, model_, policy_, cfg);
  PowClient client("10.0.0.1");
  auto outcome = server.on_request(client.make_request("/", benign_features_));
  const auto solved = client.solve(std::get<Challenge>(outcome));
  ASSERT_TRUE(solved.solved);
  clock_.advance(11s);
  EXPECT_EQ(server.on_submission(solved.submission, "10.0.0.1").status,
            common::ErrorCode::kExpired);
  EXPECT_EQ(server.stats().rejected_expired, 1u);
}

TEST_F(ServerTest, ExpiryRacingBatchVerificationCountsExactly) {
  // Half the batch ages past the verifier TTL while the other half is
  // still fresh; the pooled batch verifier must reject exactly the aged
  // half as kExpired and serve the rest — no submission may slip
  // through because its expiry check raced the pooled verification.
  ServerConfig cfg = base_config();
  cfg.verifier.ttl = 10s;
  cfg.verify_threads = 2;
  PowServer server(clock_, model_, policy_, cfg);
  const ServerStats before = server.stats();

  std::vector<PowClient> clients;
  std::vector<Submission> submissions;
  std::vector<std::string> ips;
  const auto issue_and_solve = [&](int index) {
    const std::string ip = "10.0.3." + std::to_string(index + 1);
    clients.emplace_back(ip);
    auto outcome =
        server.on_request(clients.back().make_request("/", benign_features_));
    const auto solved = clients.back().solve(std::get<Challenge>(outcome));
    ASSERT_TRUE(solved.solved);
    submissions.push_back(solved.submission);
    ips.push_back(ip);
  };

  for (int i = 0; i < 3; ++i) issue_and_solve(i);  // issued at t=0
  clock_.advance(6s);
  for (int i = 3; i < 6; ++i) issue_and_solve(i);  // issued at t=6s
  clock_.advance(5s);  // t=11s: first three aged 11s > TTL, rest 5s

  const std::vector<Response> responses =
      server.on_submission_batch(submissions, ips);
  ASSERT_EQ(responses.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(responses[static_cast<std::size_t>(i)].status,
              common::ErrorCode::kExpired)
        << "submission " << i << " should have aged out";
  }
  for (int i = 3; i < 6; ++i) {
    EXPECT_EQ(responses[static_cast<std::size_t>(i)].status,
              common::ErrorCode::kOk)
        << "submission " << i << " is still fresh";
  }

  // Stats-delta exactness: every outcome lands in exactly one counter.
  const ServerStats delta = server.stats() - before;
  EXPECT_EQ(delta.rejected_expired, 3u);
  EXPECT_EQ(delta.served, 3u);
  EXPECT_EQ(delta.challenges_issued, 6u);
  EXPECT_EQ(delta.rejected_replay, 0u);
  EXPECT_EQ(delta.rejected_bad_solution, 0u);
}

TEST_F(ServerTest, WholeBatchExpiredRejectsEverySubmission) {
  // The all-expired edge: the verify pool gets a batch where no job
  // survives the TTL pre-check — it must still answer every submission
  // (kExpired each) rather than collapsing on an empty job set.
  ServerConfig cfg = base_config();
  cfg.verifier.ttl = 10s;
  cfg.verify_threads = 2;
  PowServer server(clock_, model_, policy_, cfg);
  const ServerStats before = server.stats();

  std::vector<PowClient> clients;
  std::vector<Submission> submissions;
  std::vector<std::string> ips;
  for (int i = 0; i < 4; ++i) {
    const std::string ip = "10.0.4." + std::to_string(i + 1);
    clients.emplace_back(ip);
    auto outcome =
        server.on_request(clients.back().make_request("/", benign_features_));
    const auto solved = clients.back().solve(std::get<Challenge>(outcome));
    ASSERT_TRUE(solved.solved);
    submissions.push_back(solved.submission);
    ips.push_back(ip);
  }
  clock_.advance(11s);

  const std::vector<Response> responses =
      server.on_submission_batch(submissions, ips);
  ASSERT_EQ(responses.size(), 4u);
  for (const Response& response : responses) {
    EXPECT_EQ(response.status, common::ErrorCode::kExpired);
  }
  const ServerStats delta = server.stats() - before;
  EXPECT_EQ(delta.rejected_expired, 4u);
  EXPECT_EQ(delta.served, 0u);
}

TEST_F(ServerTest, BadNonceRejected) {
  PowServer server(clock_, model_, policy_, base_config());
  PowClient client("10.0.0.1");
  auto outcome = server.on_request(client.make_request("/", benign_features_));
  auto solved = client.solve(std::get<Challenge>(outcome));
  ASSERT_TRUE(solved.solved);
  solved.submission.solution.nonce ^= 1;
  EXPECT_EQ(server.on_submission(solved.submission, "10.0.0.1").status,
            common::ErrorCode::kBadSolution);
  EXPECT_EQ(server.stats().rejected_bad_solution, 1u);
}

TEST_F(ServerTest, PerCallTraceMatchesIssuedChallenge) {
  ServerConfig cfg = base_config();
  cfg.reputation_cache_enabled = false;
  PowServer server(clock_, model_, policy_, cfg);
  PowClient client("10.0.0.1");
  ScoringTrace trace;
  auto outcome = server.on_request(client.make_request("/", benign_features_),
                                   &trace);
  ASSERT_TRUE(std::holds_alternative<Challenge>(outcome));
  EXPECT_EQ(trace.difficulty, std::get<Challenge>(outcome).puzzle.difficulty);
  EXPECT_FALSE(trace.from_cache);
  // With the cache off, scoring the same client again traces the same
  // decision.
  ScoringTrace again;
  outcome = server.on_request(client.make_request("/", benign_features_),
                              &again);
  ASSERT_TRUE(std::holds_alternative<Challenge>(outcome));
  EXPECT_DOUBLE_EQ(again.score, trace.score);
  EXPECT_EQ(again.difficulty, trace.difficulty);
}

TEST_F(ServerTest, RequestBatchMatchesPerIndexOutcomes) {
  ServerConfig cfg = base_config();
  cfg.verify_threads = 2;
  PowServer server(clock_, model_, policy_, cfg);

  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    Request request;
    request.client_ip = "10.0.0." + std::to_string(i + 1);
    request.features = benign_features_;
    request.request_id = 100 + i;
    requests.push_back(std::move(request));
  }
  Request malformed;
  malformed.client_ip = "not-an-ip";
  malformed.features = benign_features_;
  malformed.request_id = 999;
  requests.push_back(std::move(malformed));

  const auto outcomes = server.on_request_batch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (std::size_t i = 0; i + 1 < outcomes.size(); ++i) {
    ASSERT_TRUE(std::holds_alternative<Challenge>(outcomes[i]));
    EXPECT_EQ(std::get<Challenge>(outcomes[i]).request_id,
              requests[i].request_id);
  }
  ASSERT_TRUE(std::holds_alternative<Response>(outcomes.back()));
  EXPECT_EQ(std::get<Response>(outcomes.back()).status,
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.stats().requests, 9u);
  EXPECT_EQ(server.stats().challenges_issued, 8u);
  EXPECT_EQ(server.stats().rejected_malformed, 1u);
}

TEST_F(ServerTest, ReputationCacheServesRepeatClients) {
  PowServer server(clock_, model_, policy_, base_config());
  PowClient client("10.0.0.1");
  ScoringTrace first;
  ScoringTrace second;
  (void)server.on_request(client.make_request("/", benign_features_), &first);
  EXPECT_FALSE(first.from_cache);
  (void)server.on_request(client.make_request("/", benign_features_), &second);
  EXPECT_TRUE(second.from_cache);
}

TEST_F(ServerTest, CacheDisabledScoresEveryTime) {
  ServerConfig cfg = base_config();
  cfg.reputation_cache_enabled = false;
  PowServer server(clock_, model_, policy_, cfg);
  PowClient client("10.0.0.1");
  ScoringTrace second;
  (void)server.on_request(client.make_request("/", benign_features_));
  (void)server.on_request(client.make_request("/", benign_features_), &second);
  EXPECT_FALSE(second.from_cache);
}

TEST_F(ServerTest, RateLimiterBoundsChallengeIssuance) {
  ServerConfig cfg = base_config();
  cfg.rate_limiter_enabled = true;
  cfg.rate_limiter.tokens_per_second = 1.0;
  cfg.rate_limiter.burst = 3.0;
  PowServer server(clock_, model_, policy_, cfg);
  PowClient client("10.0.0.1");
  int challenges = 0;
  int limited = 0;
  for (int i = 0; i < 10; ++i) {
    auto outcome = server.on_request(client.make_request("/", benign_features_));
    if (std::holds_alternative<Challenge>(outcome)) {
      ++challenges;
    } else if (std::get<Response>(outcome).status ==
               common::ErrorCode::kRateLimited) {
      ++limited;
    }
  }
  EXPECT_EQ(challenges, 3);
  EXPECT_EQ(limited, 7);
  EXPECT_EQ(server.stats().rejected_rate_limited, 7u);
  // Tokens refill with time.
  clock_.advance(2s);
  auto outcome = server.on_request(client.make_request("/", benign_features_));
  EXPECT_TRUE(std::holds_alternative<Challenge>(outcome));
}

TEST_F(ServerTest, StatsMeanDifficultyTracksIssued) {
  PowServer server(clock_, model_, policy_, base_config());
  PowClient client("10.0.0.1");
  (void)server.on_request(client.make_request("/", benign_features_));
  const double mean = server.stats().mean_difficulty();
  EXPECT_GE(mean, 5.0);
  EXPECT_LE(mean, 15.0);
}

TEST_F(ServerTest, ClientAttemptBudgetProducesTimeout) {
  PowServer server(clock_, model_, policy_, base_config());
  ClientConfig cc;
  cc.max_attempts = 1;  // malicious features would need far more
  PowClient client("203.0.0.7", cc);
  const RoundTrip trip = client.run(server, "/", malicious_features_);
  // Either solved within 1 attempt (astronomically unlikely at d>=10) or
  // timed out.
  if (!trip.served) {
    EXPECT_EQ(trip.response.status, common::ErrorCode::kTimeout);
  }
}

TEST_F(ServerTest, EmptyMasterSecretRejected) {
  ServerConfig cfg;
  EXPECT_THROW(PowServer(clock_, model_, policy_, cfg), std::invalid_argument);
}

TEST(RateLimiterUnit, TokensAndRefill) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.tokens_per_second = 2.0;
  cfg.burst = 4.0;
  RateLimiter limiter(clock, cfg);
  const features::IpAddress ip(1, 2, 3, 4);
  EXPECT_DOUBLE_EQ(limiter.tokens(ip), 4.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(limiter.allow(ip));
  EXPECT_FALSE(limiter.allow(ip));
  clock.advance(500ms);  // +1 token
  EXPECT_TRUE(limiter.allow(ip));
  EXPECT_FALSE(limiter.allow(ip));
}

TEST(RateLimiterUnit, IndependentPerIp) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.tokens_per_second = 1.0;
  cfg.burst = 1.0;
  RateLimiter limiter(clock, cfg);
  EXPECT_TRUE(limiter.allow(features::IpAddress(1, 1, 1, 1)));
  EXPECT_TRUE(limiter.allow(features::IpAddress(2, 2, 2, 2)));
  EXPECT_FALSE(limiter.allow(features::IpAddress(1, 1, 1, 1)));
  EXPECT_EQ(limiter.tracked_ips(), 2u);
}

TEST(RateLimiterUnit, CapsTrackedIps) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.max_tracked_ips = 2;
  cfg.shards = 1;  // one shard = deterministic global eviction
  RateLimiter limiter(clock, cfg);
  (void)limiter.allow(features::IpAddress(0, 0, 0, 1));
  clock.advance(1ms);
  (void)limiter.allow(features::IpAddress(0, 0, 0, 2));
  clock.advance(1ms);
  (void)limiter.allow(features::IpAddress(0, 0, 0, 3));
  EXPECT_EQ(limiter.tracked_ips(), 2u);
}

TEST(RateLimiterUnit, EvictsStaleBucketWhenFull) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.max_tracked_ips = 2;
  cfg.shards = 1;
  cfg.burst = 4.0;
  RateLimiter limiter(clock, cfg);
  for (int i = 0; i < 3; ++i) {
    (void)limiter.allow(features::IpAddress(0, 0, 0, 1));  // stale after this
  }
  clock.advance(10ms);
  (void)limiter.allow(features::IpAddress(0, 0, 0, 2));
  clock.advance(10ms);
  (void)limiter.allow(features::IpAddress(0, 0, 0, 3));  // evicts .1
  // The evicted IP restarts with a full (minus one) bucket instead of
  // its spent balance.
  EXPECT_TRUE(limiter.allow(features::IpAddress(0, 0, 0, 1)));
  EXPECT_DOUBLE_EQ(limiter.tokens(features::IpAddress(0, 0, 0, 1)), 3.0);
}

TEST(RateLimiterUnit, TokensDiagnosticsAreReadOnly) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.burst = 4.0;
  cfg.max_tracked_ips = 2;
  cfg.shards = 1;
  RateLimiter limiter(clock, cfg);

  // Probing a never-seen IP reports the full burst without creating a
  // bucket.
  EXPECT_DOUBLE_EQ(limiter.tokens(features::IpAddress(9, 9, 9, 9)), 4.0);
  EXPECT_EQ(limiter.tracked_ips(), 0u);

  // Fill to the ceiling, then probe a third IP: no live bucket may be
  // evicted by a diagnostics read.
  EXPECT_TRUE(limiter.allow(features::IpAddress(0, 0, 0, 1)));
  clock.advance(1ms);
  EXPECT_TRUE(limiter.allow(features::IpAddress(0, 0, 0, 2)));
  EXPECT_DOUBLE_EQ(limiter.tokens(features::IpAddress(0, 0, 0, 3)), 4.0);
  EXPECT_EQ(limiter.tracked_ips(), 2u);
  // Both live buckets still carry their spent balance (plus the 1ms
  // refill on the first).
  EXPECT_LT(limiter.tokens(features::IpAddress(0, 0, 0, 1)), 4.0);
  EXPECT_LT(limiter.tokens(features::IpAddress(0, 0, 0, 2)), 4.0);
}

TEST(RateLimiterUnit, ShardCountClampedToTrackingBudget) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  // Tiny budgets collapse to one lock: starved shards would thrash-evict
  // colliding IPs back to full burst below the global ceiling.
  cfg.max_tracked_ips = 2;
  cfg.shards = 8;
  EXPECT_EQ(RateLimiter(clock, cfg).shard_count(), 1u);
  cfg = {};
  cfg.max_tracked_ips = 4096;  // feeds 4 shards at the 1024-bucket floor
  cfg.shards = 8;
  EXPECT_EQ(RateLimiter(clock, cfg).shard_count(), 4u);
  cfg = {};
  cfg.shards = 5;
  EXPECT_EQ(RateLimiter(clock, cfg).shard_count(), 8u);  // rounded up
}

TEST(RateLimiterUnit, RejectsBadConfig) {
  common::ManualClock clock;
  RateLimiterConfig bad;
  bad.tokens_per_second = 0.0;
  EXPECT_THROW(RateLimiter(clock, bad), std::invalid_argument);
  bad = {};
  bad.burst = 0.5;
  EXPECT_THROW(RateLimiter(clock, bad), std::invalid_argument);
  bad = {};
  bad.max_tracked_ips = 0;
  EXPECT_THROW(RateLimiter(clock, bad), std::invalid_argument);
}

TEST(RateLimiterUnit, RejectsUnrepresentableBurstInsteadOfTruncating) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  // Beyond the wide word's range the limiter must refuse, never clamp:
  // a silently truncated burst under-enforces the configured ceiling.
  cfg.burst = RateLimiter::kMaxWideBurst * 2.0;
  EXPECT_THROW(RateLimiter(clock, cfg), std::invalid_argument);
  cfg.burst = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RateLimiter(clock, cfg), std::invalid_argument);
  cfg.burst = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RateLimiter(clock, cfg), std::invalid_argument);
  // The boundary itself is representable and accepted.
  cfg.burst = RateLimiter::kMaxWideBurst;
  EXPECT_NO_THROW(RateLimiter(clock, cfg));
}

TEST(RateLimiterUnit, WideBurstBeyondPackedCapIsExact) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.tokens_per_second = 1000.0;
  cfg.burst = 70000.0;  // > kMaxBurst: selects the wide representation
  RateLimiter limiter(clock, cfg);
  EXPECT_TRUE(limiter.wide());
  const features::IpAddress ip(1, 2, 3, 4);
  EXPECT_DOUBLE_EQ(limiter.tokens(ip), 70000.0);
  for (int i = 0; i < 70000; ++i) ASSERT_TRUE(limiter.allow(ip));
  EXPECT_FALSE(limiter.allow(ip));
  EXPECT_LT(limiter.tokens(ip), 1.0);
  clock.advance(2ms);  // +2 tokens
  EXPECT_TRUE(limiter.allow(ip));
  EXPECT_TRUE(limiter.allow(ip));
  EXPECT_FALSE(limiter.allow(ip));
}

TEST(RateLimiterUnit, WideBucketsRefillAndCapAtBurst) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.tokens_per_second = 100000.0;
  cfg.burst = 1 << 20;
  RateLimiter limiter(clock, cfg);
  const features::IpAddress ip(5, 6, 7, 8);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(limiter.allow(ip));
  // Long idle refills back to exactly the burst, never beyond.
  clock.advance(std::chrono::hours(1));
  EXPECT_DOUBLE_EQ(limiter.tokens(ip), static_cast<double>(1 << 20));
}

TEST(RateLimiterUnit, WideFractionalCreditIsNeverRoundedAway) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.tokens_per_second = 1.0;
  cfg.burst = 100000.0;
  RateLimiter limiter(clock, cfg);
  const features::IpAddress ip(9, 9, 9, 9);
  for (int i = 0; i < 100000; ++i) ASSERT_TRUE(limiter.allow(ip));
  // Poll every 100ms: each denial earns 0.1 tokens of credit that must
  // accrue across denials (the deny-without-earned-quantum rule), so the
  // 10th poll wins a token.
  int granted = 0;
  for (int i = 0; i < 10; ++i) {
    clock.advance(100ms);
    if (limiter.allow(ip)) ++granted;
  }
  EXPECT_EQ(granted, 1);
}

}  // namespace
}  // namespace powai::framework
