// ABL-VARIANCE — variance-reduced puzzles: the same expected work split
// into k subpuzzles tightens the solve-time distribution by ~sqrt(k),
// letting a policy hit its latency target instead of a wide band around
// it. Prints mean/median/p90 attempts and the relative spread per fanout.
//
// Usage:   ./build/bench/bench_variance [d=12] [trials=60]

#include <cmath>
#include <cstdio>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "pow/generator.hpp"
#include "pow/multi_puzzle.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const unsigned d = static_cast<unsigned>(args.get_u64("d", 12));
  const int trials = static_cast<int>(args.get_i64("trials", 60));

  common::ManualClock clock;
  pow::PuzzleGenerator generator(clock, common::bytes_of("variance-bench"));

  common::Table table({"fanout", "sub_difficulty", "mean_attempts",
                       "median_attempts", "p90_attempts", "stddev/mean",
                       "theory_stddev/mean"});

  std::uint64_t key = 0;  // one puzzle identity per trial
  for (unsigned fanout : {1u, 2u, 4u, 8u, 16u}) {
    if (static_cast<unsigned>(std::log2(fanout)) >= d) break;
    common::Samples attempts;
    for (int t = 0; t < trials; ++t) {
      const pow::MultiPuzzle m =
          pow::split_puzzle(generator.issue_for("198.51.100.4", ++key, d),
                            fanout);
      const pow::MultiSolveResult r = pow::solve_multi(m);
      if (!r.found) {
        std::fprintf(stderr, "unexpected unsolved multi-puzzle\n");
        return 1;
      }
      attempts.add(static_cast<double>(r.attempts));
    }
    table.add_row({std::to_string(fanout),
                   std::to_string(d - static_cast<unsigned>(std::log2(fanout))),
                   common::fmt_f(attempts.mean(), 0),
                   common::fmt_f(attempts.median(), 0),
                   common::fmt_f(attempts.quantile(0.9), 0),
                   common::fmt_f(attempts.stddev() / attempts.mean(), 3),
                   common::fmt_f(1.0 / std::sqrt(fanout), 3)});
  }

  std::printf("ABL-VARIANCE: fanout-k subpuzzles at constant expected work "
              "2^%u (%d trials per row)\n\n%s\n",
              d, trials, table.to_text().c_str());
  std::printf("stddev/mean should track 1/sqrt(k): the policy's assigned "
              "latency becomes a tight target rather than a wide band.\n");
  return 0;
}
