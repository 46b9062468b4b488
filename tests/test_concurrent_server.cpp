// Concurrency tests for the full PowServer issuance path: N threads
// through on_request/on_submission must produce exactly the totals of
// the serial run of the same workload, rate-limiter token accounting
// must stay exact under races, and no challenge or submission may be
// double-counted. These run under ThreadSanitizer in CI (label
// "concurrency").

#include "framework/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "features/synthetic.hpp"
#include "framework/client.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"
#include "sim/load_harness.hpp"

namespace powai::framework {
namespace {

using namespace std::chrono_literals;

/// Sum of every outcome counter — must always equal `requests` plus the
/// submission outcomes, since each call lands in exactly one bucket.
std::uint64_t request_outcomes(const ServerStats& s) {
  return s.challenges_issued + s.served_without_pow + s.rejected_malformed +
         s.rejected_rate_limited;
}

class ConcurrentServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(42);
    const features::SyntheticTraceGenerator gen;
    model_.fit(gen.generate(200, 200, rng));
    benign_ = gen.sample(false, rng);
    malicious_ = gen.sample(true, rng);
  }

  ServerConfig base_config() {
    ServerConfig cfg;
    cfg.master_secret = common::bytes_of("concurrent-server-secret");
    return cfg;
  }

  /// Runs the same deterministic request workload (kThreads ×
  /// kPerThread, one IP per lane, every 5th request malformed) either
  /// serially or with one thread per lane.
  void run_request_workload(PowServer& server, bool parallel) {
    auto lane = [&](int t) {
      for (int j = 0; j < kPerThread; ++j) {
        Request request;
        request.client_ip =
            (j % 5 == 4) ? "not-an-ip" : sim::load_client_ip(t);
        request.features = benign_;
        request.request_id = static_cast<std::uint64_t>(t) * 1000 + j;
        (void)server.on_request(request);
      }
    };
    if (!parallel) {
      for (int t = 0; t < kThreads; ++t) lane(t);
      return;
    }
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(lane, t);
    for (auto& th : threads) th.join();
  }

  static constexpr int kThreads = 4;
  static constexpr int kPerThread = 100;

  common::ManualClock clock_;
  reputation::DabrModel model_;
  policy::LinearPolicy policy_ = policy::LinearPolicy::policy2();
  features::FeatureVector benign_;
  features::FeatureVector malicious_;
};

TEST_F(ConcurrentServerTest, NThreadStatsEqualSerialRun) {
  // Deterministic scoring (cache off, linear policy) makes the serial
  // totals the exact ground truth for the parallel run.
  ServerConfig cfg = base_config();
  cfg.reputation_cache_enabled = false;

  PowServer serial(clock_, model_, policy_, cfg);
  run_request_workload(serial, /*parallel=*/false);
  const ServerStats expected = serial.stats();

  PowServer concurrent(clock_, model_, policy_, cfg);
  run_request_workload(concurrent, /*parallel=*/true);
  const ServerStats got = concurrent.stats();

  EXPECT_EQ(got.requests, expected.requests);
  EXPECT_EQ(got.challenges_issued, expected.challenges_issued);
  EXPECT_EQ(got.rejected_malformed, expected.rejected_malformed);
  EXPECT_EQ(got.difficulty_sum, expected.difficulty_sum);
  EXPECT_EQ(request_outcomes(got), got.requests);
}

TEST_F(ConcurrentServerTest, ReputationCacheKeepsTotalsConserved) {
  // With the cache on, which thread scores first is racy, but every
  // request must still land in exactly one outcome bucket.
  PowServer server(clock_, model_, policy_, base_config());
  run_request_workload(server, /*parallel=*/true);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(request_outcomes(s), s.requests);
}

TEST_F(ConcurrentServerTest, RateLimiterTokenAccountingExactUnderRaces) {
  // Frozen clock, one shared IP: out of kThreads*kPerThread racing
  // requests exactly `burst` may ever win a token.
  constexpr std::uint64_t kBurst = 32;
  ServerConfig cfg = base_config();
  cfg.rate_limiter_enabled = true;
  cfg.rate_limiter.tokens_per_second = 1.0;
  cfg.rate_limiter.burst = static_cast<double>(kBurst);
  PowServer server(clock_, model_, policy_, cfg);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) {
        Request request;
        request.client_ip = "10.0.0.1";
        request.features = benign_;
        (void)server.on_request(request);
      }
    });
  }
  for (auto& th : threads) th.join();

  const ServerStats s = server.stats();
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(s.requests, total);
  EXPECT_EQ(s.challenges_issued, kBurst);
  EXPECT_EQ(s.rejected_rate_limited, total - kBurst);
}

TEST(ConcurrentRateLimiter, AllowGrantsExactlyBurstUnderRaces) {
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.tokens_per_second = 1.0;
  cfg.burst = 17.0;  // not a multiple of the thread count
  RateLimiter limiter(clock, cfg);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> granted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int j = 0; j < kPerThread; ++j) {
        if (limiter.allow(features::IpAddress(10, 1, 2, 3))) {
          granted.fetch_add(1);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(granted.load(), 17);
  EXPECT_EQ(limiter.tracked_ips(), 1u);
  EXPECT_LT(limiter.tokens(features::IpAddress(10, 1, 2, 3)), 1.0);
}

TEST(ConcurrentRateLimiter, WideBurstGrantsExactlyBurstUnderRaces) {
  // Same exact-accounting contract as the packed path, on the wide
  // representation (burst > 65535): racing threads must collectively win
  // exactly `burst` tokens — via 128-bit CAS where the platform has it,
  // via the per-bucket lock otherwise (and always under TSan).
  common::ManualClock clock;
  RateLimiterConfig cfg;
  cfg.tokens_per_second = 1.0;
  cfg.burst = 65537.0;  // one past the packed-word ceiling
  RateLimiter limiter(clock, cfg);
  ASSERT_TRUE(limiter.wide());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 8200;  // 8 * 8200 = 65600 attempts > burst
  std::atomic<int> granted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int j = 0; j < kPerThread; ++j) {
        if (limiter.allow(features::IpAddress(10, 1, 2, 3))) {
          granted.fetch_add(1);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(granted.load(), 65537);
  EXPECT_EQ(limiter.tracked_ips(), 1u);
  EXPECT_LT(limiter.tokens(features::IpAddress(10, 1, 2, 3)), 1.0);
}

TEST_F(ConcurrentServerTest, ConcurrentSubmissionsCountedExactlyOnce) {
  // Every solved challenge is submitted by kSubmitters racing threads;
  // the replay cache must let exactly one win per puzzle.
  constexpr int kChallenges = 16;
  constexpr int kSubmitters = 4;
  PowServer server(clock_, model_, policy_, base_config());
  PowClient client("10.0.0.1");

  std::vector<Submission> submissions;
  submissions.reserve(kChallenges);
  for (int i = 0; i < kChallenges; ++i) {
    auto outcome = server.on_request(client.make_request("/", benign_));
    ASSERT_TRUE(std::holds_alternative<Challenge>(outcome));
    const auto solved = client.solve(std::get<Challenge>(outcome));
    ASSERT_TRUE(solved.solved);
    submissions.push_back(solved.submission);
  }

  std::atomic<int> ok_count{0};
  std::atomic<int> replay_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&] {
      for (const Submission& submission : submissions) {
        const Response response = server.on_submission(submission, "10.0.0.1");
        if (response.status == common::ErrorCode::kOk) {
          ok_count.fetch_add(1);
        } else if (response.status == common::ErrorCode::kReplay) {
          replay_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok_count.load(), kChallenges);
  EXPECT_EQ(replay_count.load(), kChallenges * (kSubmitters - 1));
  const ServerStats s = server.stats();
  EXPECT_EQ(s.served, static_cast<std::uint64_t>(kChallenges));
  EXPECT_EQ(s.rejected_replay,
            static_cast<std::uint64_t>(kChallenges) * (kSubmitters - 1));
}

TEST_F(ConcurrentServerTest, MixedEntryPointsStayConsistent) {
  // Request and submission traffic interleaved from different threads —
  // the usage pattern a real front-end produces.
  constexpr int kRounds = 24;
  PowServer server(clock_, model_, policy_, base_config());

  auto full_loop = [&](int lane) {
    PowClient client(sim::load_client_ip(static_cast<std::size_t>(lane)));
    for (int i = 0; i < kRounds; ++i) {
      const RoundTrip trip = client.run(server, "/", benign_);
      ASSERT_TRUE(trip.served);
    }
  };
  std::vector<std::thread> threads;
  for (int lane = 0; lane < 3; ++lane) threads.emplace_back(full_loop, lane);
  for (auto& th : threads) th.join();

  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests, 3u * kRounds);
  EXPECT_EQ(s.challenges_issued, 3u * kRounds);
  EXPECT_EQ(s.served, 3u * kRounds);
}

TEST_F(ConcurrentServerTest, LoadHarnessBalancesClientAndServerTallies) {
  PowServer server(clock_, model_, policy_, base_config());
  sim::LoadHarnessConfig lc;
  lc.client_threads = 4;
  lc.requests_per_client = 8;
  sim::LoadHarness harness(server, lc);
  const sim::LoadReport report = harness.run({benign_});

  EXPECT_EQ(report.round_trips, 32u);
  EXPECT_EQ(report.served, 32u);
  EXPECT_EQ(report.server_delta.requests, 32u);
  EXPECT_EQ(report.server_delta.challenges_issued, 32u);
  EXPECT_EQ(report.server_delta.served, 32u);
  EXPECT_GT(report.solve_attempts, 0u);
}

TEST_F(ConcurrentServerTest, LoadHarnessRejectsBadConfig) {
  PowServer server(clock_, model_, policy_, base_config());
  sim::LoadHarnessConfig lc;
  lc.client_threads = 0;
  EXPECT_THROW(sim::LoadHarness(server, lc), std::invalid_argument);
  lc = {};
  lc.requests_per_client = 0;
  EXPECT_THROW(sim::LoadHarness(server, lc), std::invalid_argument);
  sim::LoadHarness ok(server, {});
  EXPECT_THROW((void)ok.run({}), std::invalid_argument);
}

TEST_F(ConcurrentServerTest, RequestBatchRunsWhileSubmissionsArrive) {
  // on_request_batch and on_submission_batch share one lazily-created
  // pool; exercise both concurrently (parallel_for is reentrant).
  constexpr int kBatch = 24;
  ServerConfig cfg = base_config();
  cfg.verify_threads = 2;
  PowServer server(clock_, model_, policy_, cfg);
  PowClient client("10.0.0.1");

  std::vector<Submission> submissions;
  std::vector<std::string> ips;
  for (int i = 0; i < kBatch; ++i) {
    auto outcome = server.on_request(client.make_request("/", benign_));
    const auto solved = client.solve(std::get<Challenge>(outcome));
    ASSERT_TRUE(solved.solved);
    submissions.push_back(solved.submission);
    ips.emplace_back("10.0.0.1");
  }

  std::vector<Request> requests;
  for (int i = 0; i < kBatch; ++i) {
    Request request;
    request.client_ip = sim::load_client_ip(static_cast<std::size_t>(i));
    request.features = benign_;
    request.request_id = 7000 + i;
    requests.push_back(std::move(request));
  }

  std::vector<Response> responses;
  std::vector<std::variant<Challenge, Response>> outcomes;
  std::thread submitter(
      [&] { responses = server.on_submission_batch(submissions, ips); });
  outcomes = server.on_request_batch(requests);
  submitter.join();

  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kBatch));
  for (int i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(std::holds_alternative<Challenge>(outcomes[i]));
    EXPECT_EQ(std::get<Challenge>(outcomes[i]).request_id,
              requests[i].request_id);
  }
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kBatch));
  for (const Response& response : responses) {
    EXPECT_EQ(response.status, common::ErrorCode::kOk);
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.served, static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(s.challenges_issued, 2u * kBatch);
}

}  // namespace
}  // namespace powai::framework
