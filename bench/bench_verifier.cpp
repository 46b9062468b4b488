// ABL-VERIFY — §II.5 calls verification a "light weight block". This
// bench quantifies the asymmetry: verifying a solution is O(1) (one HMAC
// + one SHA-256) while solving is O(2^d); the table reports the measured
// ratio per difficulty.
//
// Usage:   ./build/bench/bench_verifier [trials=20] [max_d=14]

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"
#include "pow/verifier.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const int trials = static_cast<int>(args.get_i64("trials", 20));
  const unsigned max_d = static_cast<unsigned>(args.get_u64("max_d", 14));

  common::ManualClock clock;
  const common::Bytes secret = common::bytes_of("verify-bench-secret");
  pow::PuzzleGenerator generator(clock, secret);
  const pow::Solver solver;

  common::Table table({"difficulty", "solve_ms_mean", "verify_us_mean",
                       "solve/verify"});

  std::uint64_t key = 0;  // one puzzle identity per trial
  for (unsigned d = 2; d <= max_d; d += 2) {
    common::Samples solve_ms;
    common::Samples verify_us;
    for (int t = 0; t < trials; ++t) {
      const pow::Puzzle puzzle = generator.issue_for("198.51.100.2", ++key, d);
      const auto s0 = std::chrono::steady_clock::now();
      const pow::SolveResult r = solver.solve(puzzle);
      const auto s1 = std::chrono::steady_clock::now();
      solve_ms.add(std::chrono::duration<double, std::milli>(s1 - s0).count());

      // Fresh verifier per trial so the replay cache never rejects.
      pow::Verifier verifier(clock, secret);
      const auto v0 = std::chrono::steady_clock::now();
      const common::Status ok = verifier.verify(puzzle, r.solution);
      const auto v1 = std::chrono::steady_clock::now();
      if (!ok.ok()) {
        std::fprintf(stderr, "unexpected verify failure: %s\n",
                     ok.error().to_string().c_str());
        return 1;
      }
      verify_us.add(std::chrono::duration<double, std::micro>(v1 - v0).count());
    }
    const double ratio =
        solve_ms.mean() * 1000.0 / std::max(verify_us.mean(), 1e-9);
    table.add_row({std::to_string(d), common::fmt_f(solve_ms.mean(), 3),
                   common::fmt_f(verify_us.mean(), 2),
                   common::fmt_f(ratio, 0)});
  }

  std::printf("ABL-VERIFY: verification stays flat while solving doubles "
              "per difficulty step (%d trials each)\n\n%s\n",
              trials, table.to_text().c_str());
  std::printf("paper anchor (SII.5): \"Puzzle verification is light weight\" "
              "- the ratio column is the quantitative form.\n");
  return 0;
}
