#include "sim/fig2.hpp"

#include <stdexcept>

#include "common/clock.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"

namespace powai::sim {

common::Table Fig2Result::to_table() const {
  std::vector<std::string> header = {"reputation_score"};
  for (const auto& s : series) header.push_back(s.policy_name + "_median_ms");
  common::Table table(std::move(header));
  if (series.empty()) return table;
  for (std::size_t r = 0; r < series.front().median_ms.size(); ++r) {
    std::vector<std::string> row = {std::to_string(r)};
    for (const auto& s : series) {
      row.push_back(common::fmt_f(s.median_ms[r], 2));
    }
    table.add_row(std::move(row));
  }
  return table;
}

Fig2Result run_fig2(const std::vector<const policy::IPolicy*>& policies,
                    const Fig2Config& config) {
  if (policies.empty()) {
    throw std::invalid_argument("run_fig2: no policies");
  }
  if (config.trials <= 0) {
    throw std::invalid_argument("run_fig2: trials must be positive");
  }
  config.latency.validate();

  common::Rng rng(config.seed);
  common::ManualClock clock;
  pow::PuzzleGenerator generator(clock, common::bytes_of("fig2-secret"));
  const pow::Solver solver;
  std::uint64_t trial_key = 0;  ///< one puzzle identity per real solve

  Fig2Result result;
  for (const policy::IPolicy* pol : policies) {
    if (pol == nullptr) throw std::invalid_argument("run_fig2: null policy");
    Fig2Series series;
    series.policy_name = std::string(pol->name());

    for (int score = 0; score <= 10; ++score) {
      common::Samples latencies;
      common::RunningStats difficulties;
      for (int trial = 0; trial < config.trials; ++trial) {
        const policy::Difficulty d =
            pol->difficulty(static_cast<double>(score), rng);
        difficulties.add(static_cast<double>(d));

        std::uint64_t attempts;
        if (config.use_real_solver) {
          const pow::Puzzle puzzle =
              generator.issue_for("198.51.100.7", ++trial_key, d);
          const pow::SolveResult solved = solver.solve(puzzle);
          attempts = solved.attempts;
        } else {
          attempts = sample_attempts(d, rng);
        }
        latencies.add(config.latency.end_to_end_ms(attempts, rng));
      }
      series.median_ms.push_back(latencies.median());
      series.mean_ms.push_back(latencies.mean());
      series.p90_ms.push_back(latencies.quantile(0.9));
      series.mean_difficulty.push_back(difficulties.mean());
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

}  // namespace powai::sim
