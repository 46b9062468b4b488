// ABL-ADVERSARY — security table: every bypass strategy against the full
// server pipeline, with its success rate and the hash work it had to
// invest. tests/test_adversary.cpp checks the same table.
//
// Usage:   ./build/bench/bench_adversary [attempts=25] [seed=99]

#include <cstdio>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"
#include "sim/adversary.hpp"
#include "sim/workload.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  sim::AdversaryConfig cfg;
  cfg.attempts_per_strategy = args.get_u64("attempts", 25);
  cfg.seed = args.get_u64("seed", 99);

  sim::WorkloadConfig wl;  // default (realistic) overlap
  common::Rng rng(cfg.seed ^ 0xadULL);
  reputation::DabrModel model;
  model.fit(sim::make_training_set(wl, 800, 800, rng));
  const policy::LinearPolicy policy = policy::LinearPolicy::policy2();

  const auto reports = sim::run_adversaries(cfg, model, policy);
  std::printf("ABL-ADVERSARY: bypass strategies vs the full pipeline "
              "(%llu attempts each, policy2, DAbR eps=%.2f)\n\n%s\n",
              static_cast<unsigned long long>(cfg.attempts_per_strategy),
              model.error_epsilon(),
              sim::adversary_table(reports).to_text().c_str());
  std::printf("every bypass fails closed; only honest hash work (sybil row) "
              "obtains service, at full per-request price.\n");
  return 0;
}
