// Tests for parallel verification: batch results must be
// indistinguishable from sequential verification on distinct puzzles,
// the single-redemption guarantee must survive races (N threads, one
// winner), and the server batch path must fold stats correctly.

#include "pow/batch_verifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "features/synthetic.hpp"
#include "framework/client.hpp"
#include "framework/server.hpp"
#include "policy/linear_policy.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"
#include "reputation/dabr.hpp"

namespace powai::pow {
namespace {

using common::ErrorCode;

/// Owning storage for one solved puzzle; VerificationJob only points.
struct Solved {
  Puzzle puzzle;
  Solution solution;
  std::string observed_ip;
};

struct Rig {
  common::ManualClock clock;
  PuzzleGenerator generator;
  std::uint64_t next_key = 1;  ///< request key of the next solved() puzzle
  Verifier verifier;
  Solver solver;
  std::deque<Solved> store;  // deque: stable addresses across push_back

  explicit Rig(VerifierConfig config = {})
      : generator(clock, common::bytes_of("batch-secret")),
        verifier(clock, common::bytes_of("batch-secret"), config) {}

  Solved& solved(unsigned difficulty, const std::string& ip = "1.2.3.4") {
    const Puzzle p = generator.issue_for(ip, next_key++, difficulty);
    const SolveResult r = solver.solve(p);
    EXPECT_TRUE(r.found);
    store.push_back({p, r.solution, {}});
    return store.back();
  }

  VerificationJob solved_job(unsigned difficulty,
                             const std::string& ip = "1.2.3.4") {
    return job_for(solved(difficulty, ip));
  }

  static VerificationJob job_for(const Solved& s) {
    return {&s.puzzle, &s.solution,
            s.observed_ip.empty() ? nullptr : &s.observed_ip};
  }
};

std::vector<ErrorCode> codes(const std::vector<common::Status>& statuses) {
  std::vector<ErrorCode> out;
  out.reserve(statuses.size());
  for (const auto& st : statuses) {
    out.push_back(st.ok() ? ErrorCode::kOk : st.error().code);
  }
  return out;
}

TEST(BatchVerifier, EmptyBatch) {
  Rig rig;
  BatchVerifier batch(rig.verifier, 2);
  EXPECT_TRUE(batch.verify_batch({}).empty());
}

TEST(BatchVerifier, AcceptsAllValidSolutions) {
  Rig rig;
  std::vector<VerificationJob> jobs;
  for (int i = 0; i < 32; ++i) jobs.push_back(rig.solved_job(4));

  BatchVerifier batch(rig.verifier, 4);
  const auto results = batch.verify_batch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << "job " << i;
  }
  EXPECT_EQ(rig.verifier.replay_entries(), jobs.size());
}

TEST(BatchVerifier, BatchEqualsSequentialOnDistinctPuzzles) {
  // Two rigs with identical clocks/secrets see identical puzzles; one
  // verifies the batch in parallel, the other sequentially. For
  // distinct puzzle ids the outcome vectors must match element-wise.
  Rig parallel_rig;
  Rig sequential_rig;

  auto make_jobs = [](Rig& rig) {
    std::vector<VerificationJob> jobs;
    // Valid solutions.
    for (int i = 0; i < 8; ++i) jobs.push_back(rig.solved_job(4));
    // Wrong nonce.
    Solved& bad = rig.solved(4);
    bad.solution.nonce ^= 0xdeadULL;
    jobs.push_back(Rig::job_for(bad));
    // Wrong binding.
    Solved& misbound = rig.solved(4, "10.0.0.9");
    misbound.observed_ip = "10.9.9.9";
    jobs.push_back(Rig::job_for(misbound));
    // Tampered difficulty (MAC mismatch).
    Solved& forged = rig.solved(4);
    forged.puzzle.difficulty = 1;
    jobs.push_back(Rig::job_for(forged));
    return jobs;
  };

  const auto parallel_jobs = make_jobs(parallel_rig);
  const auto sequential_jobs = make_jobs(sequential_rig);

  BatchVerifier parallel_batch(parallel_rig.verifier, 4);
  BatchVerifier sequential_batch(sequential_rig.verifier, 4);

  const auto parallel_codes = codes(parallel_batch.verify_batch(parallel_jobs));
  const auto sequential_codes =
      codes(sequential_batch.verify_sequential(sequential_jobs));
  EXPECT_EQ(parallel_codes, sequential_codes);
  EXPECT_EQ(parallel_rig.verifier.replay_entries(),
            sequential_rig.verifier.replay_entries());
}

TEST(BatchVerifier, DuplicateSolutionInOneBatchRedeemsExactlyOnce) {
  Rig rig;
  const VerificationJob job = rig.solved_job(6);
  std::vector<VerificationJob> jobs(16, job);

  BatchVerifier batch(rig.verifier, 4);
  const auto results = batch.verify_batch(jobs);
  const auto cs = codes(results);
  EXPECT_EQ(std::count(cs.begin(), cs.end(), ErrorCode::kOk), 1);
  EXPECT_EQ(std::count(cs.begin(), cs.end(), ErrorCode::kReplay), 15);
  EXPECT_EQ(rig.verifier.replay_entries(), 1u);
}

TEST(BatchVerifier, ConcurrentVerifyFromManyThreadsAcceptsOnce) {
  // The raw race, without the batch API: N threads call verify() on a
  // shared Verifier with the same solved puzzle. Exactly one may win.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  Rig rig;

  for (int round = 0; round < kRounds; ++round) {
    const VerificationJob job = rig.solved_job(4);
    std::atomic<int> accepted{0};
    std::atomic<int> replayed{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const common::Status st =
            rig.verifier.verify(*job.puzzle, *job.solution);
        if (st.ok()) {
          accepted.fetch_add(1);
        } else if (st.error().code == ErrorCode::kReplay) {
          replayed.fetch_add(1);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    ASSERT_EQ(accepted.load(), 1) << "round " << round;
    ASSERT_EQ(replayed.load(), kThreads - 1) << "round " << round;
  }
}

TEST(BatchVerifier, SharedExternalPool) {
  Rig rig;
  common::ThreadPool pool(2);
  BatchVerifier batch(rig.verifier, pool);
  EXPECT_EQ(batch.threads(), 2u);

  std::vector<VerificationJob> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(rig.solved_job(4));
  const auto results = batch.verify_batch(jobs);
  for (const auto& st : results) EXPECT_TRUE(st.ok());
}

// --- Server batch path ----------------------------------------------------

class ServerBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(42);
    const features::SyntheticTraceGenerator gen;
    model_.fit(gen.generate(400, 400, rng));
    features_ = gen.sample(false, rng);
  }

  framework::ServerConfig base_config() {
    framework::ServerConfig cfg;
    cfg.master_secret = common::bytes_of("server-batch-secret");
    cfg.verify_threads = 4;
    return cfg;
  }

  common::ManualClock clock_;
  reputation::DabrModel model_;
  policy::LinearPolicy policy_ = policy::LinearPolicy::policy2();
  features::FeatureVector features_;
};

TEST_F(ServerBatchTest, BatchSubmissionMatchesSingleSubmissionSemantics) {
  framework::PowServer server(clock_, model_, policy_, base_config());
  framework::PowClient client("10.0.0.1");
  Solver solver;

  std::vector<framework::Submission> submissions;
  for (int i = 0; i < 12; ++i) {
    const framework::Request request = client.make_request("/", features_);
    auto outcome = server.on_request(request);
    ASSERT_TRUE(std::holds_alternative<framework::Challenge>(outcome));
    const auto& challenge = std::get<framework::Challenge>(outcome);
    const SolveResult r = solver.solve(challenge.puzzle);
    ASSERT_TRUE(r.found);
    submissions.push_back(
        {challenge.request_id, challenge.puzzle, r.solution});
  }
  // Corrupt the last solution.
  submissions.back().solution.nonce ^= 1;

  const std::vector<framework::Response> responses =
      server.on_submission_batch(submissions);
  ASSERT_EQ(responses.size(), submissions.size());
  for (std::size_t i = 0; i + 1 < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, ErrorCode::kOk) << "submission " << i;
    EXPECT_EQ(responses[i].request_id, submissions[i].request_id);
  }
  EXPECT_EQ(responses.back().status, ErrorCode::kBadSolution);

  EXPECT_EQ(server.stats().served, 11u);
  EXPECT_EQ(server.stats().rejected_bad_solution, 1u);

  // Resubmitting the whole batch is all replays (plus the still-bad one).
  const auto replayed = server.on_submission_batch(submissions);
  for (std::size_t i = 0; i + 1 < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].status, ErrorCode::kReplay) << "submission " << i;
  }
  EXPECT_EQ(server.stats().rejected_replay, 11u);
}

TEST_F(ServerBatchTest, ObservedIpsLengthMismatchThrows) {
  framework::PowServer server(clock_, model_, policy_, base_config());
  const std::vector<framework::Submission> submissions(2);
  const std::vector<std::string> ips(1);
  EXPECT_THROW((void)server.on_submission_batch(submissions, ips),
               std::invalid_argument);
}

}  // namespace
}  // namespace powai::pow
