// closed_mix — the paper's scenario, in process. One thread runs
// closed-loop exchanges (request codec → on_request → challenge codec
// → solve → submission codec → on_submission → response codec) for every
// client in turn against one PowServer with DAbR + Policy 2 on a frozen
// clock. One client in ten has attacker features. Real solving dominates
// the time, so this workload shows solver and backend changes; every
// exchange is served, and the hashes spent are a pure function of the
// seed. One thread, so that on a shared host a pass competes with other
// tenants for one core, not three.

#include <array>
#include <chrono>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.hpp"
#include "framework/protocol.hpp"
#include "framework/server.hpp"
#include "policy/linear_policy.hpp"
#include "pow/solver.hpp"
#include "sim/load_harness.hpp"
#include "suite.hpp"

namespace powai::bench {
namespace {

/// Enough exchanges that the solver's luck on the few hardest puzzles
/// moves a pass's hash count by only a few percent between seeds.
constexpr std::size_t kReferenceClients = 4000;
constexpr std::uint64_t kRequestsPerClient = 4;
constexpr std::size_t kAttackerEvery = 10;

/// Frozen server clock: puzzles never expire mid-run.
const common::TimePoint kEpoch{std::chrono::seconds(1'700'000'000)};

/// Index 0 = benign, 1 = attacker.
struct Tally {
  std::array<std::uint64_t, 2> exchanges{};
  std::array<std::uint64_t, 2> attempts{};
  std::array<std::uint64_t, 2> difficulty_sum{};
  std::array<double, 2> work{};
  std::uint64_t served = 0;
  std::uint64_t cache_hits = 0;
  std::vector<double> benign_latency_ticks;  ///< in exchange order
};

class ClosedMix final : public Workload {
 public:
  ClosedMix(std::uint64_t seed, double scale)
      : model_(fit_model()),
        policy_(policy::LinearPolicy::policy2()),
        secret_(secret_for(seed)),
        clients_(scaled(kReferenceClients, scale, kAttackerEvery)),
        features_(population_features(seed, clients_, kAttackerEvery)) {
    ips_.reserve(clients_);
    for (std::size_t c = 0; c < clients_; ++c) {
      ips_.push_back(sim::load_client_ip(c));
    }
  }

  PassResult run_pass(Tracer* tracer) override;

 private:
  static bool attacker(std::size_t c) { return c % kAttackerEvery == 0; }

  /// One full exchange for client \p c, timed end to end.
  void exchange(framework::PowServer& server, std::size_t c,
                std::uint64_t request_id, Tally& tally,
                ThreadTrace* trace) const;

  /// The codec, server and solver steps of one exchange, each its own
  /// span; true if the exchange was served.
  bool steps(framework::PowServer& server, std::size_t c,
             std::uint64_t request_id, std::size_t cls, Tally& tally,
             SpanClock& span) const;

  std::unique_ptr<reputation::DabrModel> model_;
  policy::LinearPolicy policy_;
  common::Bytes secret_;
  std::size_t clients_;
  std::vector<features::FeatureVector> features_;
  std::vector<std::string> ips_;
  pow::Solver solver_;
};

void ClosedMix::exchange(framework::PowServer& server, std::size_t c,
                         std::uint64_t request_id, Tally& tally,
                         ThreadTrace* trace) const {
  const std::size_t cls = attacker(c) ? 1 : 0;
  ++tally.exchanges[cls];
  const std::uint64_t start = ticks();
  if (trace != nullptr) {
    trace->begin_request(request_key(c, request_id));
    trace->open(Layer::kExchange, start);
  }
  SpanClock span{trace, start};
  const bool served = steps(server, c, request_id, cls, tally, span);
  const std::uint64_t end = trace != nullptr ? span.last : ticks();
  if (trace != nullptr) trace->close_as(Layer::kExchange, end);
  if (!served) return;
  ++tally.served;
  if (cls == 0) {
    tally.benign_latency_ticks.push_back(static_cast<double>(end - start));
  }
}

bool ClosedMix::steps(framework::PowServer& server, std::size_t c,
                      std::uint64_t request_id, std::size_t cls,
                      Tally& tally, SpanClock& span) const {
  using framework::decode;

  span.open(Layer::kEncode);
  framework::Request request;
  request.client_ip = ips_[c];
  request.features = features_[c];
  request.request_id = request_id;
  const common::Bytes request_wire = request.serialize();
  span.close_as(Layer::kEncode);

  span.open(Layer::kDecode);
  const auto request_msg = decode(request_wire);
  span.close_as(Layer::kDecode);
  if (!request_msg) return false;

  span.open(Layer::kOnRequest);
  framework::ScoringTrace scoring;
  auto issued = server.on_request(std::get<framework::Request>(*request_msg),
                                  &scoring);
  const auto* challenge = std::get_if<framework::Challenge>(&issued);
  span.close_as(challenge != nullptr ? Layer::kOnRequest
                                     : Layer::kOnRequestOther);
  if (challenge == nullptr) return false;
  if (scoring.from_cache) ++tally.cache_hits;

  span.open(Layer::kEncode);
  const common::Bytes challenge_wire = challenge->serialize();
  span.close_as(Layer::kEncode);

  span.open(Layer::kDecode);
  const auto challenge_msg = decode(challenge_wire);
  span.close_as(Layer::kDecode);
  if (!challenge_msg) return false;
  const pow::Puzzle& puzzle =
      std::get<framework::Challenge>(*challenge_msg).puzzle;

  span.open(Layer::kSolve);
  const pow::SolveResult solved = solver_.solve(puzzle);
  span.close_as(Layer::kSolve);
  tally.attempts[cls] += solved.attempts;
  tally.difficulty_sum[cls] += puzzle.difficulty;
  tally.work[cls] += expected_work(puzzle.difficulty);

  span.open(Layer::kEncode);
  framework::Submission submission;
  submission.request_id = request_id;
  submission.puzzle = puzzle;
  submission.solution = solved.solution;
  const common::Bytes submission_wire = submission.serialize();
  span.close_as(Layer::kEncode);

  span.open(Layer::kDecode);
  const auto submission_msg = decode(submission_wire);
  span.close_as(Layer::kDecode);
  if (!submission_msg) return false;

  span.open(Layer::kOnSubmissionServed);
  const framework::Response response = server.on_submission(
      std::get<framework::Submission>(*submission_msg), ips_[c]);
  span.close_as(response.status == common::ErrorCode::kOk
                    ? Layer::kOnSubmissionServed
                    : Layer::kOnSubmissionOther);

  span.open(Layer::kEncode);
  const common::Bytes response_wire = response.serialize();
  span.close_as(Layer::kEncode);

  span.open(Layer::kDecode);
  const auto response_msg = decode(response_wire);
  span.close_as(Layer::kDecode);

  return response_msg && std::get<framework::Response>(*response_msg).status ==
                             common::ErrorCode::kOk;
}

PassResult ClosedMix::run_pass(Tracer* tracer) {
  common::ManualClock clock(kEpoch);
  const Instrumented layers(*model_, policy_, tracer);
  framework::ServerConfig cfg;
  cfg.master_secret = secret_;
  framework::PowServer server(clock, layers.model(), layers.policy(), cfg);
  const framework::ServerStats before = server.stats();

  Tally sum;
  sum.benign_latency_ticks.reserve(clients_ * kRequestsPerClient);
  ThreadTrace* trace = tracer != nullptr ? &tracer->local() : nullptr;
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients_; ++c) {
    for (std::uint64_t r = 1; r <= kRequestsPerClient; ++r) {
      exchange(server, c, r, sum, trace);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double cpu1 = process_cpu_s();
  const std::uint64_t exchanges = sum.exchanges[0] + sum.exchanges[1];
  const framework::ServerStats s = server.stats() - before;

  PassResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.cpu_s = cpu1 - cpu0;
  r.ops = exchanges;
  r.failed_ops = exchanges - sum.served;
  check(r.violations, exchanges == clients_ * kRequestsPerClient,
        "every client ran every exchange");
  check(r.violations,
        s.requests == exchanges && s.challenges_issued == exchanges,
        "server counted one request and one challenge per exchange");
  check(r.violations, s.served == sum.served,
        "client-side served equals the server's served delta");
  check(r.violations,
        s.difficulty_sum == sum.difficulty_sum[0] + sum.difficulty_sum[1],
        "client-side difficulty sum equals the server's");
  check(r.violations,
        s.rejected_replay + s.rejected_bad_solution + s.rejected_binding +
                s.rejected_expired ==
            0,
        "no exchange was rejected");

  EndToEnd& e = r.e2e;
  e.served_per_cpu_s = static_cast<double>(sum.served) / r.cpu_s;
  e.triage_per_cpu_s = 2.0 * static_cast<double>(exchanges) / r.cpu_s;
  e.benign_samples = sum.benign_latency_ticks.size();
  r.benign_latency_ticks = std::move(sum.benign_latency_ticks);
  const auto per = [&](std::size_t k, double v) {
    return ratio(v, static_cast<double>(sum.exchanges[k]));
  };
  e.throttle_work_ratio = ratio(per(1, sum.work[1]), per(0, sum.work[0]));
  e.server_bytes_per_client = ratio(static_cast<double>(server.memory_bytes()),
                                    static_cast<double>(clients_));
  e.served_share = ratio(static_cast<double>(sum.served),
                         static_cast<double>(exchanges));

  Layers& l = r.layers;
  l.attempts_benign = per(0, static_cast<double>(sum.attempts[0]));
  l.attempts_attacker = per(1, static_cast<double>(sum.attempts[1]));
  l.mean_difficulty_benign = per(0, static_cast<double>(sum.difficulty_sum[0]));
  l.mean_difficulty_attacker =
      per(1, static_cast<double>(sum.difficulty_sum[1]));
  l.cache_hit_share = ratio(static_cast<double>(sum.cache_hits),
                            static_cast<double>(s.challenges_issued));
  if (tracer != nullptr) {
    const Totals totals = tracer->totals();
    fill_span_layers(totals, r.wall_s, 1, l);
    const LayerTotals& solve = totals[static_cast<std::size_t>(Layer::kSolve)];
    l.solver_hashes_per_s =
        ratio(static_cast<double>(sum.attempts[0] + sum.attempts[1]),
              ticks_to_ns(solve.self_ticks) / 1e9);
  }

  r.outcomes = {sum.served,        sum.exchanges[0],      sum.exchanges[1],
                sum.attempts[0],   sum.attempts[1],       sum.difficulty_sum[0],
                sum.difficulty_sum[1], sum.cache_hits,    s.served};
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_closed_mix(std::uint64_t seed, double scale) {
  return std::make_unique<ClosedMix>(seed, scale);
}

}  // namespace powai::bench
