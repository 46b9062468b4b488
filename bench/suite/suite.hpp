#pragma once
/// \file suite.hpp
/// Shared pieces of powai_bench: what one timed pass of a workload
/// returns, and the helpers the workloads share. Metric names and units
/// live in powai_bench.cpp and must match BENCHMARK.json (run.py checks
/// that they do).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/stats.hpp"
#include "features/feature_vector.hpp"
#include "reputation/dabr.hpp"
#include "trace.hpp"

namespace powai::bench {

/// End-to-end metrics of one pass. Every field is defined for every
/// workload (README.md, "Metrics"); all are measured with tracing off.
/// Rates are per second of the process's CPU time over the timed region
/// (PassResult::cpu_s), which leaves out the time the host or other
/// processes took the CPU away.
struct EndToEnd {
  double served_per_cpu_s = 0.0;  ///< kOk responses per CPU-second
  double triage_per_cpu_s = 0.0;  ///< messages resolved per CPU-second
  /// Benign latency percentiles. The workloads that fill
  /// PassResult::benign_latency_ticks leave them 0; powai_bench sets them
  /// from those ticks over all measured passes.
  double benign_p50_ms = 0.0;
  double benign_p99_ms = 0.0;
  std::uint64_t benign_samples = 0;  ///< latency samples behind the quantiles
  double throttle_work_ratio = 0.0;  ///< attacker ÷ benign mean 2^d issued
  double server_bytes_per_client = 0.0;
  double served_share = 0.0;  ///< kOk ÷ exchanges that should be served
};

/// Per-layer metrics of one pass; zero where a workload does not reach
/// the layer from outside the library (README.md, "Per-layer metrics").
struct Layers {
  double solver_hashes_per_s = 0.0;
  double solver_time_share = 0.0;
  double attempts_benign = 0.0;
  double attempts_attacker = 0.0;
  double decode_ns = 0.0;
  double encode_ns = 0.0;
  double on_request_self_us = 0.0;
  double on_request_limited_us = 0.0;
  double on_submission_served_us = 0.0;
  double on_submission_bad_solution_us = 0.0;
  double on_submission_replay_us = 0.0;
  double rate_limited = 0.0;
  double replay_rejected = 0.0;
  double score_ns = 0.0;
  double cache_hit_share = 0.0;
  double difficulty_ns = 0.0;
  double mean_difficulty_benign = 0.0;
  double mean_difficulty_attacker = 0.0;
  double front_end_mean_batch = 0.0;
  double front_end_sojourn_mean_us = 0.0;
  double shed_deadline = 0.0;
  double shed_queue = 0.0;
  double shed_degraded = 0.0;
  double degrade_max_level = 0.0;
  double degrade_transitions = 0.0;
  double events_per_request = 0.0;
  double ns_per_event = 0.0;
  double messages_per_request = 0.0;
  double sim_bytes_per_client = 0.0;
  double unattributed_share = 0.0;
};

/// What one pass produced.
struct PassResult {
  double wall_s = 0.0;  ///< the timed region only
  double cpu_s = 0.0;   ///< CPU time of every thread over the timed region
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  EndToEnd e2e;
  /// Wall time of each benign exchange in ticks, in input order, from the
  /// workloads that replay their inputs in a fixed order on one thread
  /// (closed_mix, flood_triage). Their benign percentiles are taken over
  /// each exchange's fastest time across the measured passes.
  std::vector<double> benign_latency_ticks;
  Layers layers;  ///< span-derived fields are filled on traced passes only
  /// Deterministic tallies (outcome counts, work sums). Every pass of a
  /// run replays the same inputs, so these must repeat exactly —
  /// tracing included.
  std::vector<std::uint64_t> outcomes;
  std::vector<std::string> violations;  ///< failed correctness checks
};

/// A workload with its inputs built (the timed set-up happens in the
/// factory). Each pass runs on fresh server state.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One timed pass. With a tracer, spans are recorded around every
  /// layer call and the span-derived Layers fields are filled.
  [[nodiscard]] virtual PassResult run_pass(Tracer* tracer) = 0;
};

/// Factories: build the workload's inputs from \p seed. \p scale
/// multiplies the population and message counts (1 = the reference
/// size; the smoke test uses a tiny one).
std::unique_ptr<Workload> make_closed_mix(std::uint64_t seed, double scale);
std::unique_ptr<Workload> make_flood_triage(std::uint64_t seed, double scale);
std::unique_ptr<Workload> make_wire_scale(std::uint64_t seed, double scale);
std::unique_ptr<Workload> make_overload_flash(std::uint64_t seed, double scale);

// --- helpers shared by the workloads -------------------------------------

/// DAbR fitted on a fixed synthetic labelled set: the same model for
/// every seed.
[[nodiscard]] std::unique_ptr<reputation::DabrModel> fit_model();

/// \p count feature vectors of one class: a fixed sample, dealt in an
/// order drawn from \p seed. Every seed sees the same population, so the
/// score and difficulty distributions do not vary between seeds; which
/// client, IP or thread holds which vector does.
[[nodiscard]] std::vector<features::FeatureVector> dealt_features(
    std::uint64_t seed, std::size_t count, bool malicious);

/// Features for \p clients clients where client c is an attacker when
/// c % \p attacker_every == 0, each class dealt by dealt_features.
[[nodiscard]] std::vector<features::FeatureVector> population_features(
    std::uint64_t seed, std::size_t clients, std::size_t attacker_every);

/// Server master secret derived from \p seed.
[[nodiscard]] common::Bytes secret_for(std::uint64_t seed);

/// Key shared by the spans of one request: (client, request id).
[[nodiscard]] std::uint64_t request_key(std::uint64_t client,
                                        std::uint64_t request_id);

/// \p n scaled, at least \p floor.
[[nodiscard]] std::size_t scaled(std::size_t n, double scale,
                                 std::size_t floor = 1);

/// Expected hashes to solve a difficulty-\p d puzzle.
[[nodiscard]] double expected_work(unsigned d);

/// Quantile of \p s, 0 when empty.
[[nodiscard]] double quantile_or_zero(const common::Samples& s, double q);

/// a ÷ b, 0 when b is 0.
[[nodiscard]] double ratio(double a, double b);

/// CPU time this process has used, in seconds, summed over its threads.
/// Time the scheduler or the hypervisor gave to someone else is not in
/// it.
[[nodiscard]] double process_cpu_s();

/// Records \p what as a violation unless \p ok.
void check(std::vector<std::string>& violations, bool ok,
           const std::string& what);

/// Fills the span-derived Layers fields from \p totals: mean self time
/// per layer, and the solver's and the unattributed share of the pass's
/// thread-time (\p wall_s × \p threads busy threads).
void fill_span_layers(const Totals& totals, double wall_s, std::size_t threads,
                      Layers& layers);

}  // namespace powai::bench
