#include "framework/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

namespace powai::framework {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}

PowServer::PowServer(const common::Clock& clock,
                     const reputation::IReputationModel& model,
                     const policy::IPolicy& pol, ServerConfig config)
    : clock_(&clock),
      model_(&model),
      policy_(&pol),
      config_(std::move(config)),
      generator_(clock, config_.master_secret),
      verifier_(clock, config_.master_secret, config_.verifier),
      cache_(clock, config_.cache, config_.cache_shards),
      rate_limiter_(clock, config_.rate_limiter),
      ladder_(config_.degrade) {
  if (!model.fitted()) {
    throw std::invalid_argument("PowServer: reputation model is not fitted");
  }
}

ServerStats PowServer::AtomicStats::snapshot() const {
  ServerStats s;
  s.requests = requests.load(kRelaxed);
  s.challenges_issued = challenges_issued.load(kRelaxed);
  s.served = served.load(kRelaxed);
  s.served_without_pow = served_without_pow.load(kRelaxed);
  s.rejected_rate_limited = rejected_rate_limited.load(kRelaxed);
  s.rejected_malformed = rejected_malformed.load(kRelaxed);
  s.rejected_bad_solution = rejected_bad_solution.load(kRelaxed);
  s.rejected_expired = rejected_expired.load(kRelaxed);
  s.rejected_replay = rejected_replay.load(kRelaxed);
  s.rejected_binding = rejected_binding.load(kRelaxed);
  s.rejected_overload = rejected_overload.load(kRelaxed);
  s.shed_deadline_requests = shed_deadline_requests.load(kRelaxed);
  s.shed_deadline_submissions = shed_deadline_submissions.load(kRelaxed);
  s.shed_queue_requests = shed_queue_requests.load(kRelaxed);
  s.shed_queue_submissions = shed_queue_submissions.load(kRelaxed);
  s.shed_degraded_requests = shed_degraded_requests.load(kRelaxed);
  s.shed_degraded_submissions = shed_degraded_submissions.load(kRelaxed);
  s.difficulty_sum = difficulty_sum.load(kRelaxed);
  return s;
}

ServerStats ServerStats::operator-(const ServerStats& rhs) const {
  ServerStats d;
  d.requests = requests - rhs.requests;
  d.challenges_issued = challenges_issued - rhs.challenges_issued;
  d.served = served - rhs.served;
  d.served_without_pow = served_without_pow - rhs.served_without_pow;
  d.rejected_rate_limited = rejected_rate_limited - rhs.rejected_rate_limited;
  d.rejected_malformed = rejected_malformed - rhs.rejected_malformed;
  d.rejected_bad_solution = rejected_bad_solution - rhs.rejected_bad_solution;
  d.rejected_expired = rejected_expired - rhs.rejected_expired;
  d.rejected_replay = rejected_replay - rhs.rejected_replay;
  d.rejected_binding = rejected_binding - rhs.rejected_binding;
  d.rejected_overload = rejected_overload - rhs.rejected_overload;
  d.shed_deadline_requests = shed_deadline_requests - rhs.shed_deadline_requests;
  d.shed_deadline_submissions =
      shed_deadline_submissions - rhs.shed_deadline_submissions;
  d.shed_queue_requests = shed_queue_requests - rhs.shed_queue_requests;
  d.shed_queue_submissions =
      shed_queue_submissions - rhs.shed_queue_submissions;
  d.shed_degraded_requests =
      shed_degraded_requests - rhs.shed_degraded_requests;
  d.shed_degraded_submissions =
      shed_degraded_submissions - rhs.shed_degraded_submissions;
  d.difficulty_sum = difficulty_sum - rhs.difficulty_sum;
  return d;
}

ServerStats PowServer::stats() const { return stats_.snapshot(); }

std::size_t PowServer::memory_bytes() const {
  return sizeof(PowServer) + rate_limiter_.memory_bytes() +
         cache_.memory_bytes() + verifier_.replay_memory_bytes();
}

void PowServer::note_overload() {
  stats_.rejected_overload.fetch_add(1, kRelaxed);
}

void PowServer::note_queue_shed(bool is_request) {
  if (is_request) {
    stats_.shed_queue_requests.fetch_add(1, kRelaxed);
  } else {
    stats_.shed_queue_submissions.fetch_add(1, kRelaxed);
  }
}

void PowServer::note_queue_sojourn(std::int64_t now_ms, double sojourn_ms) {
  ladder_.record_sojourn(now_ms, sojourn_ms);
}

std::int64_t PowServer::effective_deadline_ms(std::int64_t deadline_ms,
                                              std::int64_t arrival_ms) const {
  if (config_.default_deadline <= common::Duration::zero()) return deadline_ms;
  const std::int64_t latest =
      arrival_ms + std::chrono::duration_cast<std::chrono::milliseconds>(
                       config_.default_deadline)
                       .count();
  // The client's deadline is only trusted to be earlier: a far-future
  // one would otherwise exempt the message from deadline shedding.
  return deadline_ms != 0 ? std::min(deadline_ms, latest) : latest;
}

std::uint32_t PowServer::retry_after_hint_ms() const {
  return ladder_.retry_after_ms();
}

Response PowServer::shed_response(std::uint64_t request_id,
                                  const char* detail) const {
  Response r;
  r.request_id = request_id;
  r.status = common::ErrorCode::kUnavailable;
  r.body = detail;
  r.retry_after_ms = retry_after_hint_ms();
  return r;
}

common::ThreadPool& PowServer::ensure_pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<common::ThreadPool>(config_.verify_threads);
  });
  return *pool_;
}

std::variant<Challenge, Response> PowServer::on_request(const Request& request,
                                                        ScoringTrace* trace) {
  stats_.requests.fetch_add(1, kRelaxed);

  const auto ip = features::IpAddress::parse(request.client_ip);
  if (!ip) {
    stats_.rejected_malformed.fetch_add(1, kRelaxed);
    return Response{request.request_id, common::ErrorCode::kInvalidArgument,
                    "unparsable client ip"};
  }

  if (config_.rate_limiter_enabled && !rate_limiter_.allow(*ip)) {
    stats_.rejected_rate_limited.fetch_add(1, kRelaxed);
    return Response{request.request_id, common::ErrorCode::kRateLimited,
                    "challenge rate exceeded"};
  }

  // Overload control: offered load feeds the ladder's pressure signal,
  // then dead work (expired deadline) is shed before any scoring cost.
  const std::int64_t arrival_ms = now_ms();
  ladder_.record_arrival(arrival_ms);
  const std::int64_t deadline =
      effective_deadline_ms(request.deadline_ms, arrival_ms);
  if (deadline != 0 && arrival_ms > deadline) {
    stats_.shed_deadline_requests.fetch_add(1, kRelaxed);
    return shed_response(request.request_id, "deadline exceeded");
  }

  if (!config_.pow_enabled) {
    // Baseline mode: no puzzle, immediate service.
    stats_.served.fetch_add(1, kRelaxed);
    stats_.served_without_pow.fetch_add(1, kRelaxed);
    return Response{request.request_id, common::ErrorCode::kOk,
                    config_.resource_body};
  }

  // Degradation ladder, issuance side: L2 sheds every new issuance (a
  // shed issuance wastes no client work); L3 admits issuance only for
  // clients whose *cached* reputation is already benign — scoring a
  // fresh client is exactly the work L3 refuses to spend.
  const int level = ladder_.level();
  if (level >= 2) {
    bool admit = false;
    if (level >= 3 && config_.reputation_cache_enabled) {
      if (const auto cached = cache_.lookup(*ip)) {
        admit = *cached <= config_.degrade.l3_admit_max_score;
      }
    }
    if (!admit) {
      stats_.shed_degraded_requests.fetch_add(1, kRelaxed);
      return shed_response(request.request_id, "degraded: issuance shed");
    }
  }

  // (2) AI model → reputation score (optionally via the cache).
  ScoringTrace local;
  if (config_.reputation_cache_enabled) {
    if (const auto cached = cache_.lookup(*ip)) {
      local.score = *cached;
      local.from_cache = true;
    } else {
      local.score = model_->score(request.features);
      cache_.update(*ip, local.score);
    }
  } else {
    local.score = model_->score(request.features);
  }

  // (3) policy → difficulty. Randomized policies draw from a private
  // counter-based stream keyed by the request's stable puzzle id: no
  // lock, and the draw is reproducible from (policy_seed, puzzle_id)
  // alone — arrival order cannot permute it.
  const std::uint64_t puzzle_id =
      generator_.derive_puzzle_id(request.client_ip, request.request_id);
  common::Rng policy_stream =
      common::stream_rng(config_.policy_seed, puzzle_id);
  local.difficulty = policy_->difficulty(local.score, policy_stream);
  if (level >= 1 && config_.degrade.l1_difficulty_floor > 0) {
    local.difficulty =
        std::max(local.difficulty, config_.degrade.l1_difficulty_floor);
  }

  // (4) issue the puzzle under the same stable identity.
  stats_.challenges_issued.fetch_add(1, kRelaxed);
  stats_.difficulty_sum.fetch_add(local.difficulty, kRelaxed);
  if (trace != nullptr) *trace = local;
  return Challenge{request.request_id,
                   generator_.issue_with_id(puzzle_id, request.client_ip,
                                            local.difficulty)};
}

std::vector<std::variant<Challenge, Response>> PowServer::on_request_batch(
    std::span<const Request> requests) {
  std::vector<std::variant<Challenge, Response>> results(requests.size());
  ensure_pool().parallel_for(requests.size(), [&](std::size_t i) {
    results[i] = on_request(requests[i]);
  });
  return results;
}

std::optional<Response> PowServer::precheck_submission(
    const Submission& submission, std::int64_t arrival_ms, int level) {
  // Deadline first: the client has given up, verification would be dead
  // work however valid the solution is.
  const std::int64_t deadline =
      effective_deadline_ms(submission.deadline_ms, arrival_ms);
  if (deadline != 0 && arrival_ms > deadline) {
    stats_.shed_deadline_submissions.fetch_add(1, kRelaxed);
    return shed_response(submission.request_id, "deadline exceeded");
  }

  if (level >= 3) {
    // L3: only reputation-proven clients get verification cycles. The
    // bound ip (what the puzzle was issued to) keys the cache lookup.
    bool admit = false;
    if (config_.reputation_cache_enabled) {
      if (const auto ip =
              features::IpAddress::parse(submission.puzzle.client_binding)) {
        if (const auto cached = cache_.lookup(*ip)) {
          admit = *cached <= config_.degrade.l3_admit_max_score;
        }
      }
    }
    if (!admit) {
      stats_.shed_degraded_submissions.fetch_add(1, kRelaxed);
      return shed_response(submission.request_id,
                           "degraded: admission by reputation only");
    }
  }

  if (level >= 1 && config_.degrade.l1_ttl > common::Duration::zero()) {
    // L1+: shrink the effective TTL at verification time (the puzzle
    // wire format and MAC are untouched — this is a server-side policy
    // on its own clock).
    const auto ttl_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            config_.degrade.l1_ttl)
                            .count();
    if (arrival_ms - submission.puzzle.issued_at_ms > ttl_ms) {
      return finalize_submission(
          submission.request_id,
          common::err(common::ErrorCode::kExpired, "degraded ttl exceeded"));
    }
  }
  return std::nullopt;
}

Response PowServer::on_submission(const Submission& submission,
                                  const std::string& observed_ip) {
  const std::int64_t arrival_ms = now_ms();
  ladder_.poll(arrival_ms);
  if (auto early =
          precheck_submission(submission, arrival_ms, ladder_.level())) {
    return *early;
  }
  return finalize_submission(
      submission.request_id,
      verifier_.verify(submission.puzzle, submission.solution, observed_ip));
}

std::vector<Response> PowServer::on_submission_batch(
    std::span<const Submission> submissions,
    std::span<const std::string> observed_ips) {
  if (!observed_ips.empty() && observed_ips.size() != submissions.size()) {
    throw std::invalid_argument(
        "PowServer::on_submission_batch: observed_ips size mismatch");
  }
  std::call_once(batch_verifier_once_, [this] {
    batch_verifier_ =
        std::make_unique<pow::BatchVerifier>(verifier_, ensure_pool());
  });

  // Overload prechecks first: shed entries resolve without touching the
  // verifier, and only the survivors are batched onto the pool.
  const std::int64_t arrival_ms = now_ms();
  ladder_.poll(arrival_ms);
  const int level = ladder_.level();
  std::vector<Response> responses(submissions.size());
  std::vector<pow::VerificationJob> jobs;
  std::vector<std::size_t> job_slots;
  jobs.reserve(submissions.size());
  job_slots.reserve(submissions.size());
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    if (auto early = precheck_submission(submissions[i], arrival_ms, level)) {
      responses[i] = std::move(*early);
      continue;
    }
    job_slots.push_back(i);
    jobs.push_back({&submissions[i].puzzle, &submissions[i].solution,
                    observed_ips.empty() ? nullptr : &observed_ips[i]});
  }

  if (!jobs.empty()) {
    const std::vector<common::Status> statuses =
        batch_verifier_->verify_batch(jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      responses[job_slots[j]] = finalize_submission(
          submissions[job_slots[j]].request_id, statuses[j]);
    }
  }
  return responses;
}

Response PowServer::finalize_submission(std::uint64_t request_id,
                                        const common::Status& status) {
  if (status.ok()) {
    // (6)-(7): solved correctly — serve the resource.
    stats_.served.fetch_add(1, kRelaxed);
    return Response{request_id, common::ErrorCode::kOk,
                    config_.resource_body};
  }
  switch (status.error().code) {
    case common::ErrorCode::kExpired:
      stats_.rejected_expired.fetch_add(1, kRelaxed);
      break;
    case common::ErrorCode::kReplay:
      stats_.rejected_replay.fetch_add(1, kRelaxed);
      break;
    case common::ErrorCode::kBadSolution:
      stats_.rejected_bad_solution.fetch_add(1, kRelaxed);
      break;
    default:
      stats_.rejected_binding.fetch_add(1, kRelaxed);
      break;
  }
  return Response{request_id, status.error().code, status.error().message};
}

}  // namespace powai::framework
