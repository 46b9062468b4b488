// flood_triage — the server alone, as fast as one core lets it go. One
// thread replays a flood built in set-up: decode, then
// on_request/on_submission, then encode the reply. The mix is 70%
// attacker requests from a heavy-tailed set of IPs, 10% benign requests,
// 10% valid benign submissions (solved in set-up), 4% replays of those,
// 4% forgeries (bad nonce, bad MAC, wrong binding IP) and 2% malformed
// bytes. The rate
// limiter is on and the clock frozen, so every message's outcome is known
// in advance and checked. No solving happens in a pass: this is the
// DDoS-defense hot path (rate limiter, reputation cache, issuance, MAC
// precheck, replay cache), and solver changes should leave it unchanged.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "features/ip_address.hpp"
#include "framework/protocol.hpp"
#include "framework/server.hpp"
#include "policy/linear_policy.hpp"
#include "pow/solver.hpp"
#include "suite.hpp"

namespace powai::bench {
namespace {

constexpr std::size_t kReferenceMessages = 400'000;
constexpr std::size_t kReferenceAttackerIps = 50'000;
constexpr double kBurst = 8.0;

const common::TimePoint kEpoch{std::chrono::seconds(1'700'000'000)};

/// What a message must produce. The server-side counter each one lands
/// in is checked against the count of its class.
enum class Outcome : std::uint8_t {
  kChallenged,
  kLimited,
  kServed,
  kReplay,
  kBadSolution,
  kBinding,    ///< bad MAC or wrong binding IP (both kInvalidArgument)
  kMalformed,
  kOther,      ///< never expected
  kCount,
};
constexpr std::size_t kOutcomes = static_cast<std::size_t>(Outcome::kCount);

enum class Kind : std::uint8_t {
  kAttackerRequest,
  kBenignRequest,
  kValid,
  kReplay,
  kForged,
  kMalformed,
};

struct Message {
  std::size_t offset = 0;  ///< into the flood's arena
  std::uint32_t length = 0;
  std::uint32_t source = 0;  ///< index into Flood::ips
  std::uint64_t key = 0;     ///< request key (sampling)
  Outcome expect = Outcome::kOther;
  bool benign = false;  ///< benign request or valid submission
  bool attacker = false;  ///< attacker request
};

struct Tally {
  std::array<std::uint64_t, kOutcomes> outcomes{};
  std::uint64_t mismatches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t bytes_out = 0;
  std::array<std::uint64_t, 2> challenges{};  ///< benign, attacker
  std::array<std::uint64_t, 2> difficulty_sum{};
  std::array<double, 2> work{};
  std::vector<double> benign_latency_ticks;  ///< in flood order
};

class FloodTriage final : public Workload {
 public:
  FloodTriage(std::uint64_t seed, double scale);
  PassResult run_pass(Tracer* tracer) override;

 private:
  framework::ServerConfig server_config() const;
  std::uint32_t add_ip(features::IpAddress ip);
  void push(Kind kind, std::uint32_t source, const common::Bytes& wire,
            std::uint64_t key, Outcome expect);
  void replay(framework::PowServer& server, Tally& tally,
              ThreadTrace* trace) const;

  std::unique_ptr<reputation::DabrModel> model_;
  policy::LinearPolicy policy_;
  common::Bytes secret_;
  std::vector<std::string> ips_;
  common::Bytes arena_;  ///< every message's bytes, back to back
  std::vector<Message> messages_;  ///< in flood order
  std::array<std::uint64_t, kOutcomes> expected_{};
};

framework::ServerConfig FloodTriage::server_config() const {
  framework::ServerConfig cfg;
  cfg.master_secret = secret_;
  cfg.rate_limiter_enabled = true;
  cfg.rate_limiter.tokens_per_second = 1.0;  // frozen clock: never refills
  cfg.rate_limiter.burst = kBurst;
  return cfg;
}

std::uint32_t FloodTriage::add_ip(features::IpAddress ip) {
  ips_.push_back(ip.to_string());
  return static_cast<std::uint32_t>(ips_.size() - 1);
}

void FloodTriage::push(Kind kind, std::uint32_t source,
                       const common::Bytes& wire, std::uint64_t key,
                       Outcome expect) {
  Message m;
  m.offset = arena_.size();
  m.length = static_cast<std::uint32_t>(wire.size());
  m.source = source;
  m.key = key;
  m.expect = expect;
  m.benign = kind == Kind::kBenignRequest || kind == Kind::kValid;
  m.attacker = kind == Kind::kAttackerRequest;
  arena_.insert(arena_.end(), wire.begin(), wire.end());
  messages_.push_back(m);
  ++expected_[static_cast<std::size_t>(expect)];
}

FloodTriage::FloodTriage(std::uint64_t seed, double scale)
    : model_(fit_model()),
      policy_(policy::LinearPolicy::policy2()),
      secret_(secret_for(seed)) {
  const std::size_t total = scaled(kReferenceMessages, scale, 100);
  const std::size_t attacker_ips = scaled(kReferenceAttackerIps, scale, 10);
  const auto share = [&](double s) {
    return static_cast<std::size_t>(
        std::llround(static_cast<double>(total) * s));
  };
  // The flood's shape: a shuffled sequence of message kinds.
  std::vector<Kind> kinds;
  const std::pair<Kind, double> mix[] = {
      {Kind::kBenignRequest, 0.10}, {Kind::kValid, 0.10},
      {Kind::kReplay, 0.04},        {Kind::kForged, 0.04},
      {Kind::kMalformed, 0.02}};
  for (const auto& [kind, s] : mix) kinds.insert(kinds.end(), share(s), kind);
  kinds.insert(kinds.end(), total - std::min(total, kinds.size()),
               Kind::kAttackerRequest);
  common::Rng rng = common::stream_rng(seed, 0x666c6f6f64ULL);
  std::shuffle(kinds.begin(), kinds.end(), rng);
  // A replay duplicates an earlier valid submission: move the first
  // valid one ahead of any replay.
  const auto first_valid = std::find(kinds.begin(), kinds.end(), Kind::kValid);
  const auto first_replay =
      std::find(kinds.begin(), kinds.end(), Kind::kReplay);
  if (first_valid != kinds.end() && first_replay < first_valid) {
    std::iter_swap(first_valid, first_replay);
  }

  // Set-up server: issues every puzzle the flood submits (same secret,
  // same frozen clock as the pass servers, which verify them).
  const common::ManualClock clock(kEpoch);
  framework::ServerConfig setup_cfg = server_config();
  setup_cfg.rate_limiter_enabled = false;
  framework::PowServer issuer(clock, *model_, policy_, setup_cfg);
  // Every benign source (requester, submitter, forger) takes the next
  // vector of one dealt benign sample.
  const std::vector<features::FeatureVector> benign_features = dealt_features(
      seed, share(0.10) + share(0.10) + share(0.04), false);
  std::size_t next_features = 0;
  const auto benign_sample = [&] {
    return benign_features[next_features++ % benign_features.size()];
  };
  const auto issue = [&](std::uint32_t source) {
    framework::Request request;
    request.client_ip = ips_[source];
    request.request_id = 1;
    request.features = benign_sample();
    return std::get<framework::Challenge>(issuer.on_request(request)).puzzle;
  };

  const std::vector<features::FeatureVector> attacker_features =
      dealt_features(seed, attacker_ips, true);
  std::vector<std::uint32_t> attacker_source;
  std::vector<std::uint64_t> attacker_sent(attacker_ips, 0);
  for (std::size_t i = 0; i < attacker_ips; ++i) {
    attacker_source.push_back(add_ip(
        features::IpAddress(203u << 24 | static_cast<std::uint32_t>(i))));
  }
  std::uint32_t next_benign = 10u << 24;

  // Valid submissions are collected first and solved in parallel below;
  // replays and forgeries refer to them by index.
  struct Pending {
    std::uint32_t source = 0;
    pow::Puzzle puzzle;
  };
  std::vector<Pending> valid;
  std::vector<std::size_t> replay_of(kinds.size(), 0);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == Kind::kValid) {
      const std::uint32_t source = add_ip(features::IpAddress(next_benign++));
      valid.push_back({source, issue(source)});
    } else if (kinds[i] == Kind::kReplay) {
      replay_of[i] =
          static_cast<std::size_t>(rng.uniform_u64(0, valid.size() - 1));
    }
  }
  // Solving dominates set-up; it uses every core the benchmark may.
  constexpr std::size_t kSolveThreads = 4;
  std::vector<pow::Solution> solutions(valid.size());
  {
    std::vector<std::thread> solvers;
    for (std::size_t t = 0; t < kSolveThreads; ++t) {
      solvers.emplace_back([&, t] {
        const pow::Solver solver;
        for (std::size_t v = t; v < valid.size(); v += kSolveThreads) {
          solutions[v] = solver.solve(valid[v].puzzle).solution;
        }
      });
    }
    for (std::thread& th : solvers) th.join();
  }

  std::vector<common::Bytes> valid_wire(valid.size());
  for (std::size_t v = 0; v < valid.size(); ++v) {
    framework::Submission s;
    s.request_id = 1;
    s.puzzle = valid[v].puzzle;
    s.solution = solutions[v];
    valid_wire[v] = s.serialize();
  }

  std::size_t valid_seen = 0;
  std::size_t forged_seen = 0;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    switch (kinds[i]) {
      case Kind::kAttackerRequest: {
        // Heavy-tailed reuse: a few IPs send most of the flood.
        const auto a = std::min<std::size_t>(
            attacker_ips - 1,
            static_cast<std::size_t>(static_cast<double>(attacker_ips) *
                                     std::pow(rng.uniform01(), 3.0)));
        framework::Request request;
        request.client_ip = ips_[attacker_source[a]];
        request.features = attacker_features[a];
        request.request_id = ++attacker_sent[a];
        push(Kind::kAttackerRequest, attacker_source[a], request.serialize(),
             request_key(attacker_source[a], request.request_id),
             static_cast<double>(request.request_id) <= kBurst
                 ? Outcome::kChallenged
                 : Outcome::kLimited);
        break;
      }
      case Kind::kBenignRequest: {
        const std::uint32_t source = add_ip(features::IpAddress(next_benign++));
        framework::Request request;
        request.client_ip = ips_[source];
        request.features = benign_sample();
        request.request_id = 1;
        push(Kind::kBenignRequest, source, request.serialize(),
             request_key(source, 1), Outcome::kChallenged);
        break;
      }
      case Kind::kValid: {
        const Pending& v = valid[valid_seen];
        push(Kind::kValid, v.source, valid_wire[valid_seen++],
             request_key(v.source, 1), Outcome::kServed);
        break;
      }
      case Kind::kReplay: {
        const Pending& v = valid[replay_of[i]];
        push(Kind::kReplay, v.source, valid_wire[replay_of[i]],
             request_key(v.source, 2), Outcome::kReplay);
        break;
      }
      case Kind::kForged: {
        // Each forgery gets its own freshly issued puzzle; which field is
        // broken rotates over bad nonce, bad MAC and wrong binding IP.
        const std::uint32_t source = add_ip(features::IpAddress(next_benign++));
        framework::Submission s;
        s.request_id = 1;
        s.puzzle = issue(source);
        s.solution.puzzle_id = s.puzzle.puzzle_id;
        std::uint32_t observed = source;
        Outcome expect = Outcome::kBinding;
        switch (forged_seen++ % 3) {
          case 0:
            while (pow::is_valid_solution(s.puzzle, s.solution.nonce)) {
              ++s.solution.nonce;
            }
            expect = Outcome::kBadSolution;
            break;
          case 1:
            s.puzzle.auth[0] ^= 0x01;
            break;
          default:
            observed = add_ip(features::IpAddress(next_benign++));
            break;
        }
        push(Kind::kForged, observed, s.serialize(), request_key(source, 1),
             expect);
        break;
      }
      case Kind::kMalformed: {
        // Type tag 0 is no message type, so decode must refuse it.
        common::Bytes junk(1 + rng.uniform_u64(0, 63));
        for (std::uint8_t& b : junk) b = static_cast<std::uint8_t>(rng());
        junk[0] = 0;
        if (framework::decode(junk)) {
          throw std::logic_error("flood_triage: malformed message decoded");
        }
        push(Kind::kMalformed, attacker_source[i % attacker_ips], junk,
             request_key(i, 0), Outcome::kMalformed);
        break;
      }
    }
  }
}

void FloodTriage::replay(framework::PowServer& server, Tally& tally,
                         ThreadTrace* trace) const {
  for (const Message& m : messages_) {
    const std::uint64_t start = ticks();
    if (trace != nullptr) {
      trace->begin_request(m.key);
      trace->open(Layer::kExchange, start);
    }
    SpanClock span{trace, start};
    span.open(Layer::kDecode);
    const auto message = framework::decode(
        common::BytesView(arena_.data() + m.offset, m.length));
    span.close_as(Layer::kDecode);

    Outcome got = Outcome::kOther;
    common::Bytes reply;
    if (!message) {
      got = Outcome::kMalformed;
      span.open(Layer::kEncode);
      reply = framework::Response{0, common::ErrorCode::kMalformedMessage,
                                  "malformed"}
                  .serialize();
      span.close_as(Layer::kEncode);
    } else if (const auto* request =
                   std::get_if<framework::Request>(&*message)) {
      span.open(Layer::kOnRequest);
      framework::ScoringTrace scoring;
      auto answer = server.on_request(*request, &scoring);
      const auto* challenge = std::get_if<framework::Challenge>(&answer);
      if (challenge != nullptr) {
        got = Outcome::kChallenged;
        span.close_as(Layer::kOnRequest);
        const std::size_t cls = m.attacker ? 1 : 0;
        ++tally.challenges[cls];
        tally.difficulty_sum[cls] += challenge->puzzle.difficulty;
        tally.work[cls] += expected_work(challenge->puzzle.difficulty);
        if (scoring.from_cache) ++tally.cache_hits;
        span.open(Layer::kEncode);
        reply = challenge->serialize();
      } else {
        const auto& response = std::get<framework::Response>(answer);
        const bool limited = response.status == common::ErrorCode::kRateLimited;
        got = limited ? Outcome::kLimited : Outcome::kOther;
        span.close_as(limited ? Layer::kOnRequestLimited
                              : Layer::kOnRequestOther);
        span.open(Layer::kEncode);
        reply = response.serialize();
      }
      span.close_as(Layer::kEncode);
    } else if (const auto* submission =
                   std::get_if<framework::Submission>(&*message)) {
      span.open(Layer::kOnSubmissionServed);
      const framework::Response response =
          server.on_submission(*submission, ips_[m.source]);
      Layer layer = Layer::kOnSubmissionOther;
      switch (response.status) {
        case common::ErrorCode::kOk:
          got = Outcome::kServed;
          layer = Layer::kOnSubmissionServed;
          break;
        case common::ErrorCode::kReplay:
          got = Outcome::kReplay;
          layer = Layer::kOnSubmissionReplay;
          break;
        case common::ErrorCode::kBadSolution:
          got = Outcome::kBadSolution;
          layer = Layer::kOnSubmissionBadSolution;
          break;
        case common::ErrorCode::kInvalidArgument:
          got = Outcome::kBinding;
          break;
        default:
          break;
      }
      span.close_as(layer);
      span.open(Layer::kEncode);
      reply = response.serialize();
      span.close_as(Layer::kEncode);
    }
    const std::uint64_t end = trace != nullptr ? span.last : ticks();
    if (trace != nullptr) trace->close_as(Layer::kExchange, end);

    tally.bytes_out += reply.size();
    ++tally.outcomes[static_cast<std::size_t>(got)];
    if (got != m.expect) ++tally.mismatches;
    if (m.benign) {
      tally.benign_latency_ticks.push_back(static_cast<double>(end - start));
    }
  }
}

PassResult FloodTriage::run_pass(Tracer* tracer) {
  const common::ManualClock clock(kEpoch);
  const Instrumented layers(*model_, policy_, tracer);
  framework::PowServer server(clock, layers.model(), layers.policy(),
                              server_config());
  const framework::ServerStats before = server.stats();

  Tally sum;
  sum.benign_latency_ticks.reserve(messages_.size() / 4);
  ThreadTrace* trace = tracer != nullptr ? &tracer->local() : nullptr;
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  replay(server, sum, trace);
  const auto t1 = std::chrono::steady_clock::now();
  const double cpu1 = process_cpu_s();

  const auto count = [&](Outcome o) {
    return sum.outcomes[static_cast<std::size_t>(o)];
  };
  const auto want = [&](Outcome o) {
    return expected_[static_cast<std::size_t>(o)];
  };
  const framework::ServerStats s = server.stats() - before;

  PassResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.cpu_s = cpu1 - cpu0;
  r.ops = messages_.size();
  r.failed_ops = sum.mismatches;
  for (std::size_t k = 0; k < kOutcomes; ++k) {
    const auto o = static_cast<Outcome>(k);
    check(r.violations, count(o) == want(o),
          "outcome " + std::to_string(k) + ": got " + std::to_string(count(o)) +
              ", expected " + std::to_string(want(o)));
  }
  check(r.violations, s.served == want(Outcome::kServed),
        "served equals the distinct valid submissions");
  check(r.violations, s.rejected_replay == want(Outcome::kReplay),
        "replay rejects equal the duplicates");
  check(r.violations, s.rejected_bad_solution == want(Outcome::kBadSolution),
        "bad-solution rejects equal the bad-nonce forgeries");
  check(r.violations, s.rejected_binding == want(Outcome::kBinding),
        "binding rejects equal the bad-MAC and wrong-IP forgeries");
  check(r.violations, s.rejected_rate_limited == want(Outcome::kLimited),
        "rate-limited equals the sum over IPs of max(0, n - burst)");
  check(r.violations, s.challenges_issued == want(Outcome::kChallenged),
        "challenges issued equal the requests within burst");
  check(r.violations,
        s.requests == want(Outcome::kChallenged) + want(Outcome::kLimited),
        "server counted every decoded request");

  const double benign_challenges = static_cast<double>(sum.challenges[0]);
  EndToEnd& e = r.e2e;
  e.served_per_cpu_s = static_cast<double>(count(Outcome::kServed)) / r.cpu_s;
  e.triage_per_cpu_s = static_cast<double>(messages_.size()) / r.cpu_s;
  e.benign_samples = sum.benign_latency_ticks.size();
  r.benign_latency_ticks = std::move(sum.benign_latency_ticks);
  e.throttle_work_ratio =
      ratio(ratio(sum.work[1], static_cast<double>(sum.challenges[1])),
            ratio(sum.work[0], benign_challenges));
  e.server_bytes_per_client = ratio(static_cast<double>(server.memory_bytes()),
                                    static_cast<double>(ips_.size()));
  e.served_share = ratio(static_cast<double>(count(Outcome::kServed)),
                         static_cast<double>(want(Outcome::kServed)));

  Layers& l = r.layers;
  l.rate_limited = static_cast<double>(s.rejected_rate_limited);
  l.replay_rejected = static_cast<double>(s.rejected_replay);
  l.cache_hit_share = ratio(static_cast<double>(sum.cache_hits),
                            static_cast<double>(s.challenges_issued));
  l.mean_difficulty_benign =
      ratio(static_cast<double>(sum.difficulty_sum[0]), benign_challenges);
  l.mean_difficulty_attacker = ratio(static_cast<double>(sum.difficulty_sum[1]),
                                     static_cast<double>(sum.challenges[1]));
  if (tracer != nullptr) {
    fill_span_layers(tracer->totals(), r.wall_s, 1, l);
  }

  r.outcomes.assign(sum.outcomes.begin(), sum.outcomes.end());
  r.outcomes.insert(r.outcomes.end(),
                    {sum.challenges[0], sum.challenges[1],
                     sum.difficulty_sum[0], sum.difficulty_sum[1],
                     sum.bytes_out});
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_flood_triage(std::uint64_t seed, double scale) {
  return std::make_unique<FloodTriage>(seed, scale);
}

}  // namespace powai::bench
