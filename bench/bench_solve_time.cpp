// CLAIM-31MS — reproduces §III.A's calibration sentence: "It takes 31 ms
// on average to solve a 1-difficult puzzle, and this time increases with
// difficulty."
//
// Two views per difficulty 1..16:
//   * the calibrated DES model (what Figure 2 is built on), and
//   * real wall-clock SHA-256 solving on this machine (raw CPU cost —
//     absolute numbers differ from the paper's testbed; the doubling
//     shape is what must hold).
//
// The wall columns double as the solver-throughput headline: the
// single-thread hashes/sec column (attempts / wall) is what the
// midstate + dispatch work speeds up, and `json=path` writes it per
// difficulty as a JSON artifact ("solve_time", metric hashes_per_s). POWAI_SHA256_BACKEND=generic re-runs the same sweep on
// the scalar reference for before/after comparisons on one machine.
//
// `sweep_json=path` writes a second artifact ("solver_sweep"): for every
// supported backend, single-probe (PuzzleContext::check) vs lane-sweep
// (PuzzleContext::check_many) solver throughput on an unsolvable
// context — "sweep/avx2 over single/avx2" is the lane-parallelism
// speedup, isolated from dispatch and midstate effects.
//
// Usage:   ./build/bench/bench_solve_time [trials=30] [max_d=16]
//              [json=path] [sweep_json=path]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "crypto/sha256.hpp"
#include "pow/difficulty.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"
#include "sim/latency_model.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const int trials = static_cast<int>(args.get_i64("trials", 30));
  const unsigned max_d = static_cast<unsigned>(args.get_u64("max_d", 16));
  const std::string json_path = args.get_string("json", "");

  common::ManualClock clock;
  pow::PuzzleGenerator generator(clock, common::bytes_of("solve-time-secret"));
  const pow::Solver solver;
  const sim::LatencyModel model;
  common::Rng rng(42);

  common::Table table({"difficulty", "expected_hashes", "model_mean_ms",
                       "model_median_ms", "wall_mean_ms", "wall_median_ms",
                       "mean_attempts", "hashes_per_s"});

  struct Row {
    unsigned difficulty = 0;
    double wall_mean_ms = 0.0;
    double mean_attempts = 0.0;
    double hashes_per_s = 0.0;
  };
  std::vector<Row> rows;

  std::uint64_t key = 0;  // one puzzle identity per trial
  for (unsigned d = 1; d <= max_d; ++d) {
    common::Samples wall_ms;
    common::Samples modeled_ms;
    common::RunningStats attempts;
    double total_s = 0.0;
    double total_attempts = 0.0;
    for (int t = 0; t < trials; ++t) {
      const pow::Puzzle puzzle = generator.issue_for("198.51.100.1", ++key, d);
      const auto t0 = std::chrono::steady_clock::now();
      const pow::SolveResult r = solver.solve(puzzle);
      const auto t1 = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(t1 - t0).count();
      wall_ms.add(s * 1e3);
      total_s += s;
      total_attempts += static_cast<double>(r.attempts);
      modeled_ms.add(model.end_to_end_ms(r.attempts, rng));
      attempts.add(static_cast<double>(r.attempts));
    }
    const double hashes_per_s = total_s > 0.0 ? total_attempts / total_s : 0.0;
    rows.push_back({d, wall_ms.mean(), attempts.mean(), hashes_per_s});
    table.add_row({std::to_string(d),
                   common::fmt_f(pow::expected_hashes(d), 0),
                   common::fmt_f(modeled_ms.mean(), 2),
                   common::fmt_f(modeled_ms.median(), 2),
                   common::fmt_f(wall_ms.mean(), 3),
                   common::fmt_f(wall_ms.median(), 3),
                   common::fmt_f(attempts.mean(), 1),
                   common::fmt_f(hashes_per_s, 0)});
  }

  std::printf("CLAIM-31MS: solve time vs difficulty, %d trials each "
              "(sha256 backend: %s, lane width %zu)\n\n%s\n",
              trials,
              std::string(crypto::Sha256::backend_name(
                              crypto::Sha256::backend())).c_str(),
              crypto::Sha256::lane_width(crypto::Sha256::backend()),
              table.to_text().c_str());
  std::printf("paper anchor: 1-difficult puzzle ~ 31 ms average (their "
              "testbed, incl. round trip);\n"
              "model column reproduces that anchor; wall columns show this "
              "machine's raw hash cost.\n");

  if (!json_path.empty()) {
    common::JsonWriter w;
    w.begin_object();
    w.field_str("bench", "solve_time");
    w.field_u64("trials", static_cast<std::uint64_t>(trials));
    w.field_str("sha256_backend", std::string(crypto::Sha256::backend_name(
                                      crypto::Sha256::backend())));
    w.begin_array("rows");
    for (const Row& row : rows) {
      w.begin_object();
      w.field_u64("difficulty", row.difficulty);
      w.field_f64("wall_mean_ms", row.wall_mean_ms);
      w.field_f64("mean_attempts", row.mean_attempts);
      w.field_f64("hashes_per_s", row.hashes_per_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!common::write_json_file(json_path, w)) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json written: %s\n", json_path.c_str());
  }

  const std::string sweep_json_path = args.get_string("sweep_json", "");
  if (!sweep_json_path.empty()) {
    // Difficulty 40 is unsolvable within any benchmark run, so every
    // probe costs exactly one finish and the scan never terminates
    // early — pure throughput, no luck.
    const pow::Puzzle hard = generator.issue_for("198.51.100.1", ++key, 40);
    const pow::PuzzleContext context(hard);

    // Calibrate each case to a ~100 ms run, then report probes/sec.
    const auto rate = [](auto&& block, std::uint64_t probes_per_block) {
      std::uint64_t blocks = 1024;
      for (;;) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < blocks; ++i) block(i);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        if (s >= 0.1 || blocks >= (1ULL << 24)) {
          return static_cast<double>(blocks * probes_per_block) / s;
        }
        blocks *= 4;
      }
    };

    struct SweepRow {
      std::string case_name;  // "single/<backend>" or "sweep/<backend>"
      double hashes_per_s = 0.0;
    };
    std::vector<SweepRow> sweep_rows;
    bool sink = false;  // keeps the probe results observable
    const crypto::Sha256Backend previous = crypto::Sha256::backend();
    for (crypto::Sha256Backend b : crypto::Sha256::supported_backends()) {
      if (!crypto::Sha256::set_backend(b)) continue;
      const std::string backend(crypto::Sha256::backend_name(b));
      sweep_rows.push_back({"single/" + backend,
                            rate([&](std::uint64_t i) { sink ^= context.check(i); },
                                 1)});
      // A few lane groups per call so per-call overhead is amortized the
      // way the solver amortizes it; one-lane backends (generic, armv8)
      // still go through the same lane sweep, a lane at a time.
      const std::uint64_t batch =
          std::max<std::uint64_t>(crypto::Sha256::lane_width(b) * 4, 16);
      sweep_rows.push_back(
          {"sweep/" + backend, rate(
                                   [&](std::uint64_t i) {
                                     sink ^= context.check_many(
                                                 i * batch, 1,
                                                 static_cast<std::size_t>(
                                                     batch)) != batch;
                                   },
                                   batch)});
    }
    crypto::Sha256::set_backend(previous);

    std::printf("\nsolver probes/sec, single vs lane sweep (sink=%d):\n",
                static_cast<int>(sink));
    for (const SweepRow& row : sweep_rows) {
      std::printf("  %-18s %14.0f\n", row.case_name.c_str(), row.hashes_per_s);
    }

    common::JsonWriter w;
    w.begin_object();
    w.field_str("bench", "solver_sweep");
    w.field_str("default_backend", std::string(crypto::Sha256::backend_name(
                                       crypto::Sha256::backend())));
    w.begin_array("rows");
    for (const SweepRow& row : sweep_rows) {
      w.begin_object();
      w.field_str("case", row.case_name);
      w.field_f64("hashes_per_s", row.hashes_per_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!common::write_json_file(sweep_json_path, w)) {
      std::fprintf(stderr, "could not write %s\n", sweep_json_path.c_str());
      return 1;
    }
    std::printf("json written: %s\n", sweep_json_path.c_str());
  }
  return 0;
}
