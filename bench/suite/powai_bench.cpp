// powai_bench — the four-workload end-to-end benchmark (README.md).
//
// Usage: powai_bench [workload=closed_mix|flood_triage|wire_scale|
//          overload_flash|all] [seed=1] [seconds=10 | repeat=N]
//          [trace=0|1] [trace_out=spans.jsonl] [json=out.json]
//          [scale=1]
//
// Per workload: the set-up (model fit, inputs) runs at least three times
// (more while under half a second in total); its median is setup_s.
// Then passes run on fresh server state, each replaying the same
// seed-derived inputs: one warm-up pass, then measured passes until
// `seconds` have elapsed (at least three) or exactly `repeat` of them.
// End-to-end metrics are medians over the measured untraced passes,
// except that closed_mix and flood_triage take their benign latency
// percentiles over each exchange's fastest time. With trace=1 a traced
// pass follows each measured one; per-layer metrics are medians over the
// traced passes, and trace.overhead_share is the median CPU-time ratio of
// the pairs.
//
// Every pass is checked (README.md, "Correctness checks"); the exit code
// is 1 if any check failed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "crypto/sha256.hpp"
#include "suite.hpp"

#ifndef POWAI_BENCH_BUILD_TYPE
#define POWAI_BENCH_BUILD_TYPE ""
#endif

namespace {

using namespace powai;
using namespace powai::bench;

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

/// Names and units must match BENCHMARK.json.
std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {{"served_per_cpu_s", "1/s", e.served_per_cpu_s},
          {"triage_per_cpu_s", "1/s", e.triage_per_cpu_s},
          {"benign_p50_ms", "ms", e.benign_p50_ms},
          {"benign_p99_ms", "ms", e.benign_p99_ms},
          {"throttle_work_ratio", "ratio", e.throttle_work_ratio},
          {"server_bytes_per_client", "B", e.server_bytes_per_client},
          {"served_share", "fraction", e.served_share}};
}

std::vector<Metric> per_layer_metrics(const Layers& l) {
  return {
      {"pow.solver.hashes_per_s", "hashes/s", l.solver_hashes_per_s},
      {"pow.solver.time_share", "fraction", l.solver_time_share},
      {"pow.solver.attempts.benign", "hashes", l.attempts_benign},
      {"pow.solver.attempts.attacker", "hashes", l.attempts_attacker},
      {"framework.protocol.decode_ns", "ns", l.decode_ns},
      {"framework.protocol.encode_ns", "ns", l.encode_ns},
      {"framework.server.on_request_self_us", "us", l.on_request_self_us},
      {"framework.server.on_request_limited_us", "us", l.on_request_limited_us},
      {"framework.server.on_submission_us.served", "us",
       l.on_submission_served_us},
      {"framework.server.on_submission_us.bad_solution", "us",
       l.on_submission_bad_solution_us},
      {"framework.server.on_submission_us.replay", "us",
       l.on_submission_replay_us},
      {"framework.rate_limiter.limited", "count", l.rate_limited},
      {"pow.replay.rejected", "count", l.replay_rejected},
      {"reputation.score_ns", "ns", l.score_ns},
      {"reputation.cache_hit_share", "fraction", l.cache_hit_share},
      {"policy.difficulty_ns", "ns", l.difficulty_ns},
      {"policy.mean_difficulty.benign", "bits", l.mean_difficulty_benign},
      {"policy.mean_difficulty.attacker", "bits", l.mean_difficulty_attacker},
      {"framework.front_end.mean_batch", "msgs", l.front_end_mean_batch},
      {"framework.front_end.sojourn_mean_us", "us",
       l.front_end_sojourn_mean_us},
      {"framework.degrade.shed_deadline", "count", l.shed_deadline},
      {"framework.degrade.shed_queue", "count", l.shed_queue},
      {"framework.degrade.shed_degraded", "count", l.shed_degraded},
      {"framework.degrade.max_level", "level", l.degrade_max_level},
      {"framework.degrade.transitions", "count", l.degrade_transitions},
      {"netsim.events_per_request", "count", l.events_per_request},
      {"netsim.ns_per_event", "ns", l.ns_per_event},
      {"netsim.messages_per_request", "count", l.messages_per_request},
      {"sim.bytes_per_client", "B", l.sim_bytes_per_client},
      {"bench.unattributed_share", "fraction", l.unattributed_share},
  };
}

/// Per-metric median over passes (all lists share one name order).
std::vector<Metric> median_of(const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> out = passes.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    common::Samples s;
    for (const auto& pass : passes) s.add(pass[i].value);
    out[i].value = s.median();
  }
  return out;
}

/// Sets every pass's benign percentiles from the passes' per-exchange
/// latencies (PassResult::benign_latency_ticks): each exchange counts
/// with its fastest time over \p passes. Every pass replays the same
/// exchanges in the same order, so a slow time is either the exchange's
/// own cost, which every pass pays, or time the host gave to someone else
/// during one pass, which the others do not repeat. False if the passes
/// disagree on the number of exchanges.
bool set_best_latency_percentiles(std::vector<PassResult>& passes) {
  std::vector<double> best = passes.front().benign_latency_ticks;
  for (const PassResult& p : passes) {
    if (p.benign_latency_ticks.size() != best.size()) return false;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], p.benign_latency_ticks[i]);
    }
  }
  common::Samples s;
  s.reserve(best.size());
  for (const double t : best) s.add(t);
  const double ms_per_tick = ns_per_tick() / 1e6;
  for (PassResult& p : passes) {
    p.e2e.benign_p50_ms = quantile_or_zero(s, 0.5) * ms_per_tick;
    p.e2e.benign_p99_ms = quantile_or_zero(s, 0.99) * ms_per_tick;
  }
  return true;
}

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t repeat = 0;  ///< 0 = run for `seconds`
  bool trace = false;
  std::string trace_out;
  double scale = 1.0;
};

struct PassTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

struct WorkloadReport {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  std::size_t passes = 0;
  std::size_t traced_passes = 0;
  std::uint64_t benign_samples = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  std::vector<PassTime> pass_times;  ///< measured untraced passes, in order
};

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t, double);

struct Named {
  const char* name;
  Factory make;
};

constexpr Named kWorkloads[] = {
    {"closed_mix", make_closed_mix},
    {"flood_triage", make_flood_triage},
    {"wire_scale", make_wire_scale},
    {"overload_flash", make_overload_flash},
};

WorkloadReport run_workload(const Named& spec, const Options& opt) {
  using Clock = std::chrono::steady_clock;
  WorkloadReport report;
  report.name = spec.name;

  // Set up at least three times, and short set-ups until half a second
  // is spent, so the median is steady however cheap set-up is. Set-up is
  // timed in CPU time, like the rates: flood_triage solves on four
  // threads, whose wall time would also hold whatever else ran.
  constexpr std::size_t kMinSetups = 3;
  constexpr double kSetupBudgetS = 0.5;
  constexpr std::size_t kMaxSetups = 50;
  common::Samples setup;
  const auto setup_begin = Clock::now();
  std::unique_ptr<Workload> workload;
  while (setup.count() < kMinSetups ||
         (std::chrono::duration<double>(Clock::now() - setup_begin).count() <
              kSetupBudgetS &&
          setup.count() < kMaxSetups)) {
    workload.reset();
    const double cpu0 = process_cpu_s();
    workload = spec.make(opt.seed, opt.scale);
    setup.add(process_cpu_s() - cpu0);
  }

  // The warm-up pass fills caches and the allocator's free lists; it is
  // checked like every pass but not measured.
  const PassResult warmup = workload->run_pass(nullptr);

  constexpr std::size_t kMinPasses = 3;
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  const auto begin = Clock::now();
  const auto more = [&] {
    if (opt.repeat > 0) return plain.size() < opt.repeat;
    return plain.size() < kMinPasses ||
           std::chrono::duration<double>(Clock::now() - begin).count() <
               opt.seconds;
  };
  while (more()) {
    plain.push_back(workload->run_pass(nullptr));
    if (opt.trace) {
      Tracer tracer;
      traced.push_back(workload->run_pass(&tracer));
      if (traced.size() == 1 && !opt.trace_out.empty() &&
          !tracer.append_jsonl(opt.trace_out, spec.name)) {
        report.violations.push_back("could not write " + opt.trace_out);
      }
    }
  }

  const PassResult& reference = warmup;
  const auto account = [&](const PassResult& p, std::size_t index,
                           const char* kind) {
    report.ops += p.ops;
    report.failed_ops += p.failed_ops;
    for (const std::string& v : p.violations) {
      report.violations.push_back(std::string(kind) + " pass " +
                                  std::to_string(index) + ": " + v);
    }
    if (p.outcomes != reference.outcomes) {
      report.violations.push_back(std::string(kind) + " pass " +
                                  std::to_string(index) +
                                  ": outcome counts differ from warm-up");
    }
  };
  account(warmup, 0, "warm-up");
  if (!reference.benign_latency_ticks.empty() &&
      !set_best_latency_percentiles(plain)) {
    report.violations.push_back("passes saw different benign exchange counts");
  }
  std::vector<std::vector<Metric>> e2e;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    account(plain[i], i, "untraced");
    e2e.push_back(end_to_end_metrics(plain[i].e2e));
    report.pass_times.push_back({plain[i].wall_s, plain[i].cpu_s});
  }
  report.metrics.push_back({"setup_s", "s", setup.median()});
  for (const Metric& m : median_of(e2e)) report.metrics.push_back(m);
  report.passes = plain.size();
  report.benign_samples = reference.e2e.benign_samples;

  if (!traced.empty()) {
    std::vector<std::vector<Metric>> layers;
    // Each traced pass runs right after an untraced one on the same
    // inputs; the median of the pairs' CPU-time ratios cancels slow drift
    // in machine speed.
    common::Samples overhead;
    common::Samples busy;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      account(traced[i], i, "traced");
      layers.push_back(per_layer_metrics(traced[i].layers));
      overhead.add(traced[i].cpu_s / plain[i].cpu_s - 1.0);
      busy.add(plain[i].cpu_s / plain[i].wall_s);
    }
    for (const Metric& m : median_of(layers)) report.metrics.push_back(m);
    report.metrics.push_back(
        {"trace.overhead_share", "fraction", overhead.median()});
    // CPU-seconds per wall-second of the untraced passes: below the
    // workload's thread count, the rest of the wall time went to waiting
    // (hand-offs between threads, or a host that took the CPU away).
    report.metrics.push_back({"bench.busy_threads", "threads", busy.median()});
    report.traced_passes = traced.size();
  }
  return report;
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) try {
  const common::Config args = common::Config::from_args(argc, argv);
  Options opt;
  opt.seed = args.get_u64("seed", opt.seed);
  opt.seconds = args.get_f64("seconds", opt.seconds);
  opt.repeat = static_cast<std::size_t>(args.get_u64("repeat", 0));
  opt.trace = args.get_bool("trace", false);
  opt.trace_out = args.get_string("trace_out", "");
  opt.scale = args.get_f64("scale", opt.scale);
  const std::string which = args.get_string("workload", "all");
  const std::string json_path = args.get_string("json", "");
  if (!(opt.scale > 0.0) || !(opt.seconds >= 0.0)) {
    std::fprintf(stderr, "scale must be > 0 and seconds >= 0\n");
    return 2;
  }

  std::vector<const Named*> selected;
  for (const Named& w : kWorkloads) {
    if (which == "all" || which == w.name) selected.push_back(&w);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", which.c_str());
    return 2;
  }
  if (!opt.trace_out.empty()) std::remove(opt.trace_out.c_str());

  const crypto::Sha256Backend backend = crypto::Sha256::backend();
  const std::string build_type = POWAI_BENCH_BUILD_TYPE;
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("powai_bench: nproc=%u sha256=%s lane_width=%zu compiler=\"%s\" "
              "build=%s seed=%llu scale=%g\n",
              nproc, std::string(crypto::Sha256::backend_name(backend)).c_str(),
              crypto::Sha256::lane_width(backend), compiler_name().c_str(),
              build_type.empty() ? "none" : build_type.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.scale);
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "\n*** WARNING: powai_bench built as '%s', not Release. ***\n"
                 "*** Its timings are not comparable with reference "
                 "numbers. ***\n\n",
                 build_type.c_str());
  }
  (void)ns_per_tick();  // calibrate before any pass converts ticks

  std::vector<WorkloadReport> reports;
  bool correct = true;
  for (const Named* spec : selected) {
    WorkloadReport r = run_workload(*spec, opt);
    const std::string traced =
        r.traced_passes > 0
            ? " + " + std::to_string(r.traced_passes) + " traced"
            : "";
    std::printf("\n%s: %zu passes%s, ops=%llu failed_ops=%llu, benign latency "
                "samples/pass=%llu\n",
                r.name.c_str(), r.passes, traced.c_str(),
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.failed_ops),
                static_cast<unsigned long long>(r.benign_samples));
    for (const Metric& m : r.metrics) {
      std::printf("  %-48s %16.6g %s\n", m.name, m.value, m.unit);
    }
    for (const std::string& v : r.violations) {
      std::printf("  CHECK FAILED: %s\n", v.c_str());
    }
    correct = correct && r.violations.empty() && r.failed_ops == 0;
    reports.push_back(std::move(r));
  }

  if (!json_path.empty()) {
    common::JsonWriter w;
    w.begin_object();
    w.field_str("bench", "powai_bench");
    w.begin_object("hardware");
    w.field_u64("nproc", nproc);
    w.field_str("sha256_backend", crypto::Sha256::backend_name(backend));
    w.field_u64("lane_width", crypto::Sha256::lane_width(backend));
    w.field_str("compiler", compiler_name());
    w.field_str("build_type", build_type);
    w.end_object();
    w.field_u64("seed", opt.seed);
    w.field_f64("scale", opt.scale);
    w.field_bool("trace", opt.trace);
    w.field_bool("correct", correct);
    w.begin_array("workloads");
    for (const WorkloadReport& r : reports) {
      w.begin_object();
      w.field_str("name", r.name);
      w.field_bool("correct", r.violations.empty() && r.failed_ops == 0);
      w.field_u64("ops", r.ops);
      w.field_u64("failed_ops", r.failed_ops);
      w.field_u64("passes", r.passes);
      w.field_u64("traced_passes", r.traced_passes);
      w.field_u64("benign_samples", r.benign_samples);
      w.begin_array("pass_times");
      for (const PassTime& t : r.pass_times) {
        w.begin_object();
        w.field_f64("wall_s", t.wall_s);
        w.field_f64("cpu_s", t.cpu_s);
        w.end_object();
      }
      w.end_array();
      w.begin_object("metrics");
      for (const Metric& m : r.metrics) {
        w.begin_object(m.name);
        w.field_f64("value", m.value);
        w.field_str("unit", m.unit);
        w.end_object();
      }
      w.end_object();
      w.begin_array("violations");
      for (const std::string& v : r.violations) {
        w.begin_object();
        w.field_str("check", v);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!common::write_json_file(json_path, w)) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 2;
    }
  }
  std::printf("\n%s\n", correct ? "all checks passed" : "CHECKS FAILED");
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "powai_bench: %s\n", e.what());
  return 2;
}
