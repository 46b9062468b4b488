// FIG2 — reproduces the paper's Figure 2: median end-to-end latency (ms)
// versus reputation score 0..10 for Policies 1, 2, and 3, median of 30
// trials per point. Real SHA-256 solving; latency via the calibrated
// model (sim/latency_model.hpp). Fig2Test.* in tests/test_sim.cpp checks
// the figure's orderings.
//
// Usage:   ./build/bench/bench_fig2_policies [trials=30] [epsilon=1.5]
//          [seed=2022] [real_solver=true] [csv=false]

#include <cstdio>

#include "common/config.hpp"
#include "policy/error_range_policy.hpp"
#include "policy/linear_policy.hpp"
#include "sim/fig2.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);

  sim::Fig2Config cfg;
  cfg.trials = static_cast<int>(args.get_i64("trials", 30));
  cfg.seed = args.get_u64("seed", 2022);
  cfg.use_real_solver = args.get_bool("real_solver", true);
  const double epsilon = args.get_f64("epsilon", 1.5);

  const policy::LinearPolicy policy1 = policy::LinearPolicy::policy1();
  const policy::LinearPolicy policy2 = policy::LinearPolicy::policy2();
  const policy::ErrorRangePolicy policy3(epsilon);

  std::printf("FIG2: median latency vs reputation score, %d trials/point\n",
              cfg.trials);
  std::printf("policy1: %s\n", policy1.describe().c_str());
  std::printf("policy2: %s\n", policy2.describe().c_str());
  std::printf("policy3: %s\n", policy3.describe().c_str());
  std::printf("latency model: 4x%.1fms legs + %.1fms proc + %.1fus/hash, %s\n\n",
              cfg.latency.one_way_ms, cfg.latency.server_proc_ms,
              cfg.latency.hash_cost_us,
              cfg.use_real_solver ? "real solver" : "analytic attempts");

  sim::Fig2Result result = run_fig2({&policy1, &policy2, &policy3}, cfg);
  // Label the series the way the paper does.
  result.series[0].policy_name = "policy1";
  result.series[1].policy_name = "policy2";
  result.series[2].policy_name = "policy3";

  const common::Table table = result.to_table();
  if (args.get_bool("csv", false)) {
    std::printf("%s", table.to_csv().c_str());
  } else {
    std::printf("%s", table.to_text().c_str());
  }

  // The qualitative checks the paper's Figure 2 makes visually.
  const auto& s1 = result.series[0].median_ms;
  const auto& s2 = result.series[1].median_ms;
  const auto& s3 = result.series[2].median_ms;
  std::printf("\nshape checks (paper, Fig. 2):\n");
  std::printf("  policy1 grows but not significantly: %.0f ms -> %.0f ms\n",
              s1[0], s1[10]);
  std::printf("  policy2 grows significantly:         %.0f ms -> %.0f ms\n",
              s2[0], s2[10]);
  std::printf("  policy3 between 1 and 2 at R=10:     %.0f between %.0f and %.0f: %s\n",
              s3[10], s1[10], s2[10],
              (s3[10] > s1[10] && s3[10] < s2[10]) ? "yes" : "no (sampling noise)");
  std::printf("  31 ms anchor at d=1 (policy1, R=0):  %.1f ms\n", s1[0]);

  // Medians of 30 heavy-tailed samples are noisy (the paper's own
  // protocol); confirm the asymptotic ordering with a cheap
  // high-precision pass (analytic attempts, 2000 trials/point).
  sim::Fig2Config precise = cfg;
  precise.trials = 2000;
  precise.use_real_solver = false;
  sim::Fig2Result hp = run_fig2({&policy1, &policy2, &policy3}, precise);
  const auto& h1 = hp.series[0].median_ms;
  const auto& h2 = hp.series[1].median_ms;
  const auto& h3 = hp.series[2].median_ms;
  std::printf("\nhigh-precision check (2000 trials/point, analytic attempts):\n");
  std::printf("  R=10 medians: policy1 %.0f ms < policy3 %.0f ms < policy2 %.0f ms: %s\n",
              h1[10], h3[10], h2[10],
              (h3[10] > h1[10] && h3[10] < h2[10]) ? "yes" : "no");
  return 0;
}
