// ABL-SOLVER — solver scaling: wall-clock speedup of the multithreaded
// nonce search. Relevant to the framework's threat model: an attacker
// with k cores cuts solve latency ~k-fold, so the policy's difficulty
// slope must account for adversarial hardware.
//
// Usage:   ./build/bench/bench_solver_scaling [trials=10] [d=17]

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const int trials = static_cast<int>(args.get_i64("trials", 10));
  const unsigned d = static_cast<unsigned>(args.get_u64("d", 17));

  common::ManualClock clock;
  pow::PuzzleGenerator generator(clock, common::bytes_of("scaling-secret"));
  const pow::Solver solver;

  // Same puzzle set for every thread count, so the comparison is paired.
  std::vector<pow::Puzzle> puzzles;
  for (int t = 0; t < trials; ++t) {
    puzzles.push_back(
        generator.issue_for("198.51.100.3", static_cast<std::uint64_t>(t), d));
  }

  common::Table table({"threads", "mean_ms", "median_ms", "speedup"});
  double baseline_ms = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    common::Samples wall_ms;
    for (const pow::Puzzle& puzzle : puzzles) {
      pow::SolveOptions options;
      options.threads = threads;
      const auto t0 = std::chrono::steady_clock::now();
      const pow::SolveResult r = solver.solve(puzzle, options);
      const auto t1 = std::chrono::steady_clock::now();
      if (!r.found) {
        std::fprintf(stderr, "unexpected unsolved puzzle\n");
        return 1;
      }
      wall_ms.add(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    if (threads == 1) baseline_ms = wall_ms.mean();
    table.add_row({std::to_string(threads), common::fmt_f(wall_ms.mean(), 2),
                   common::fmt_f(wall_ms.median(), 2),
                   common::fmt_f(baseline_ms / wall_ms.mean(), 2)});
  }

  std::printf("ABL-SOLVER: multithreaded nonce search at difficulty %u "
              "(%d paired trials)\n\n%s\n",
              d, trials, table.to_text().c_str());
  std::printf("hardware threads on this machine: %u "
              "(speedup is bounded by physical cores)\n",
              std::thread::hardware_concurrency());
  return 0;
}
