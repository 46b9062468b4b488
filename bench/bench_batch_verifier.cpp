// BATCH-VERIFY — throughput of the thread-pool BatchVerifier vs
// sequential verification on the same shared, shard-striped Verifier.
// Verification is one HMAC + one SHA-256 per solution (§II.5), so it
// parallelizes with almost no shared state: the only cross-thread
// contention is the replay-cache shard lock.
//
// The batch is solved offline at difficulty 12 (the paper's mid band);
// each timed pass re-verifies it against a fresh Verifier so the replay
// cache never rejects.
//
// Usage:   ./build/bench/bench_batch_verifier [batch=2048] [passes=5]
//          [difficulty=12] [max_threads=8]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "pow/batch_verifier.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"
#include "pow/verifier.hpp"

namespace {

double run_passes(const std::vector<powai::pow::VerificationJob>& jobs,
                  int passes, std::size_t threads, bool sequential,
                  const powai::common::Clock& clock,
                  const powai::common::Bytes& secret) {
  using namespace powai;
  double best_ops = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    pow::Verifier verifier(clock, secret);
    pow::BatchVerifier batch(verifier, threads);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<common::Status> results =
        sequential ? batch.verify_sequential(jobs) : batch.verify_batch(jobs);
    const auto t1 = std::chrono::steady_clock::now();
    for (const auto& st : results) {
      if (!st.ok()) {
        std::fprintf(stderr, "unexpected verify failure: %s\n",
                     st.error().to_string().c_str());
        std::exit(1);
      }
    }
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    best_ops = std::max(
        best_ops, static_cast<double>(jobs.size()) / std::max(secs, 1e-12));
  }
  return best_ops;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const auto batch_size = static_cast<std::size_t>(args.get_u64("batch", 2048));
  const int passes = static_cast<int>(args.get_i64("passes", 5));
  const unsigned difficulty =
      static_cast<unsigned>(args.get_u64("difficulty", 12));
  const auto max_threads =
      static_cast<std::size_t>(args.get_u64("max_threads", 8));

  if (batch_size == 0 || passes <= 0) {
    std::fprintf(stderr, "batch and passes must be positive\n");
    return 1;
  }

  common::ManualClock clock;
  const common::Bytes secret = common::bytes_of("batch-bench-secret");
  pow::PuzzleGenerator generator(clock, secret);
  const pow::Solver solver;

  std::printf("solving %zu puzzles at difficulty %u (offline, one-time)...\n",
              batch_size, difficulty);
  std::vector<std::pair<pow::Puzzle, pow::Solution>> solved;
  solved.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    const pow::Puzzle p = generator.issue_for("198.51.100.7", i, difficulty);
    const pow::SolveResult r = solver.solve(p);
    if (!r.found) {
      std::fprintf(stderr, "solver failed unexpectedly\n");
      return 1;
    }
    solved.emplace_back(p, r.solution);
  }
  // Jobs are non-owning; build them only after `solved` stops growing.
  std::vector<pow::VerificationJob> jobs;
  jobs.reserve(batch_size);
  for (const auto& [puzzle, solution] : solved) {
    jobs.push_back({&puzzle, &solution, nullptr});
  }

  const double seq_ops =
      run_passes(jobs, passes, 1, /*sequential=*/true, clock, secret);

  common::Table table({"mode", "threads", "kops/s", "speedup"});
  table.add_row({"sequential", "1", common::fmt_f(seq_ops / 1e3, 1), "1.00"});

  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    const double ops =
        run_passes(jobs, passes, threads, /*sequential=*/false, clock, secret);
    table.add_row({"batch", std::to_string(threads),
                   common::fmt_f(ops / 1e3, 1),
                   common::fmt_f(ops / seq_ops, 2)});
  }

  std::printf("\nBATCH-VERIFY: parallel verification throughput, batch=%zu "
              "difficulty=%u (best of %d passes)\n\n%s\n",
              batch_size, difficulty, passes, table.to_text().c_str());
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  return 0;
}
