// Seed-driven fault-injection campaigns against the full wire stack.
//
// Sweep mode (default): derives a fault schedule per seed, runs each
// campaign (async transport + the synchronous twin), checks the
// invariants, and stops at the first failure — which it then shrinks by
// bisecting the schedule and reports as a one-line replay command, a GH
// `::error::` annotation, and (with json=) a machine-readable artifact.
//
// Replay mode (seed= given): re-executes exactly one campaign, with
// keep=i,j,k optionally restricting the derived schedule to a minimized
// subset — the command a failed sweep prints.
//
// Usage:
//   ./build/examples/run_campaigns [scenario=all] [seed0=1] [seeds=25]
//       [budget_s=60] [benign=5] [attackers=3] [requests=5]
//       [sync_check=1] [fail_on=<fault kind>] [json=campaign_repro.json]
//   ./build/examples/run_campaigns scenario=replay_flood seed=17 keep=2,5
//
// fail_on= plants the test hook that reports a violation whenever the
// executed plan contains that fault kind — the way CI and the tests
// prove the minimizer works without shipping a real bug.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"
#include "sim/campaign.hpp"

namespace {

using namespace powai;

std::vector<std::size_t> parse_keep(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (!token.empty()) out.push_back(std::stoul(token));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void write_artifact(const std::string& path, sim::Scenario scenario,
                    const sim::ShrinkReport& report) {
  common::JsonWriter json;
  json.begin_object()
      .field_str("scenario", sim::scenario_name(scenario))
      .field_u64("seed", report.minimized.seed)
      .field_str("keep", report.minimized.keep_spec())
      .field_str("replay_command", report.replay_command(scenario))
      .field_u64("shrink_runs", report.runs)
      .field_str("fingerprint", report.result.tallies.fingerprint());
  json.begin_array("events");
  for (const auto& event : report.minimized.events) {
    json.begin_object().field_str("event", event.describe()).end_object();
  }
  json.end_array();
  json.begin_array("violations");
  for (const auto& violation : report.result.violations) {
    json.begin_object()
        .field_str("invariant", violation.invariant)
        .field_str("detail", violation.detail)
        .end_object();
  }
  json.end_array().end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  std::printf("repro artifact written to %s\n", path.c_str());
}

void print_failure(sim::Scenario scenario, const sim::ShrinkReport& report) {
  std::printf("\nFAILED campaign: scenario=%s seed=%llu\n",
              std::string(sim::scenario_name(scenario)).c_str(),
              static_cast<unsigned long long>(report.minimized.seed));
  std::printf("minimized after %zu shrink runs to %zu event(s):\n%s",
              report.runs, report.minimized.events.size(),
              report.minimized.summary().c_str());
  for (const auto& violation : report.result.violations) {
    std::printf("  violated %s: %s\n", violation.invariant.c_str(),
                violation.detail.c_str());
  }
  const std::string replay = report.replay_command(scenario);
  std::printf("replay: %s\n", replay.c_str());
  // GitHub Actions annotation — shows the minimized repro on the run
  // summary without digging through logs.
  std::printf("::error::campaign invariant violated (%s); replay with: %s\n",
              std::string(sim::scenario_name(scenario)).c_str(),
              replay.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const common::Config args = common::Config::from_args(argc, argv);

  sim::CampaignConfig cfg;
  cfg.benign_clients = static_cast<std::size_t>(args.get_u64("benign", 5));
  cfg.attackers = static_cast<std::size_t>(args.get_u64("attackers", 3));
  cfg.requests_per_client =
      static_cast<std::size_t>(args.get_u64("requests", 5));
  cfg.check_sync_equivalence = args.get_bool("sync_check", true);
  if (const auto fail_on = args.get("fail_on")) {
    const auto kind = sim::fault_kind_from_name(*fail_on);
    if (!kind) {
      std::fprintf(stderr, "unknown fail_on kind: %s\n", fail_on->c_str());
      return 2;
    }
    cfg.fail_on_kind = *kind;
  }

  const std::string scenario_arg = args.get_string("scenario", "all");
  std::vector<sim::Scenario> scenarios;
  if (scenario_arg == "all") {
    scenarios.assign(sim::kAllScenarios.begin(), sim::kAllScenarios.end());
  } else if (const auto s = sim::scenario_from_name(scenario_arg)) {
    scenarios.push_back(*s);
  } else {
    std::fprintf(stderr, "unknown scenario: %s\n", scenario_arg.c_str());
    return 2;
  }

  // Model + policy shared by every campaign. policy1's modest
  // difficulties keep solver work CI-sized; the invariants do not depend
  // on the policy choice.
  common::Rng rng(7);
  const features::SyntheticTraceGenerator traffic;
  reputation::DabrModel model;
  model.fit(traffic.generate(300, 300, rng));
  const policy::LinearPolicy policy = policy::LinearPolicy::policy1();

  // --- Replay mode --------------------------------------------------------
  if (args.has("seed")) {
    cfg.scenario = scenarios.front();
    cfg.seed = args.get_u64("seed", 1);
    sim::FaultPlan plan = sim::FaultPlan::derive(cfg.seed, cfg.plan);
    if (const auto keep = args.get("keep")) {
      plan = plan.subset(parse_keep(*keep));
    }
    std::printf("replaying scenario=%s\n%s",
                std::string(sim::scenario_name(cfg.scenario)).c_str(),
                plan.summary().c_str());
    const sim::CampaignResult result =
        sim::run_campaign_with_plan(model, policy, cfg, plan);
    std::printf("fingerprint: %s\n", result.tallies.fingerprint().c_str());
    const framework::ServerStats& s = result.tallies.server;
    std::printf(
        "overload: shed deadline=%llu queue=%llu degraded=%llu "
        "timed_out=%llu ladder_max=L%llu recovery=%llu win "
        "watchdog_stalls=%llu\n",
        static_cast<unsigned long long>(s.shed_deadline_requests +
                                        s.shed_deadline_submissions),
        static_cast<unsigned long long>(s.shed_queue_requests +
                                        s.shed_queue_submissions),
        static_cast<unsigned long long>(s.shed_degraded_requests +
                                        s.shed_degraded_submissions),
        static_cast<unsigned long long>(result.tallies.timed_out),
        static_cast<unsigned long long>(result.tallies.degrade_max_level),
        static_cast<unsigned long long>(result.recovery_windows),
        static_cast<unsigned long long>(result.watchdog_stalls));
    // Wall time goes to stderr so a replay's stdout is a pure function
    // of (scenario, seed, keep) and two runs can be compared with cmp.
    std::fprintf(stderr, "campaign wall time %.2fs\n", result.wall_s);
    if (result.passed()) {
      std::printf("campaign passed\n");
      return 0;
    }
    for (const auto& violation : result.violations) {
      std::printf("violated %s: %s\n", violation.invariant.c_str(),
                  violation.detail.c_str());
    }
    return 1;
  }

  // --- Sweep mode ---------------------------------------------------------
  const std::uint64_t seed0 = args.get_u64("seed0", 1);
  const auto max_seeds = static_cast<std::size_t>(args.get_u64("seeds", 25));
  const double budget_s = args.get_f64("budget_s", 60.0);

  // The wall-clock budget is shared across scenarios so the sweep stays
  // inside one CI time box regardless of how slow the host is.
  const double per_scenario_budget =
      budget_s / static_cast<double>(scenarios.size());
  std::size_t total = 0;
  for (const sim::Scenario scenario : scenarios) {
    cfg.scenario = scenario;
    const sim::SweepOutcome outcome = sim::run_campaign_sweep(
        model, policy, cfg, seed0, max_seeds, per_scenario_budget);
    total += outcome.campaigns;
    std::printf(
        "scenario %-22s %3zu campaign(s), seeds %llu..%llu: %s "
        "(shed dl=%llu q=%llu deg=%llu timed_out=%llu ladder_max=L%llu "
        "wd_stalls=%llu)\n",
        std::string(sim::scenario_name(scenario)).c_str(), outcome.campaigns,
        static_cast<unsigned long long>(seed0),
        static_cast<unsigned long long>(outcome.last_seed),
        outcome.failure ? "FAIL" : "ok",
        static_cast<unsigned long long>(outcome.shed_deadline),
        static_cast<unsigned long long>(outcome.shed_queue),
        static_cast<unsigned long long>(outcome.shed_degraded),
        static_cast<unsigned long long>(outcome.timed_out),
        static_cast<unsigned long long>(outcome.degrade_max_level),
        static_cast<unsigned long long>(outcome.watchdog_stalls));
    if (outcome.failure) {
      print_failure(scenario, *outcome.failure);
      if (const auto json = args.get("json")) {
        write_artifact(*json, scenario, *outcome.failure);
      }
      return 1;
    }
  }
  std::printf("all %zu campaign(s) passed\n", total);
  return 0;
}
