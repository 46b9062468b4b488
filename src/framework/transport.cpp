#include "framework/transport.hpp"

#include <chrono>
#include <stdexcept>

#include "framework/async_front_end.hpp"

namespace powai::framework {

// ---------------------------------------------------------------------------
// ServerEndpoint
// ---------------------------------------------------------------------------

ServerEndpoint::ServerEndpoint(netsim::Network& network, std::string host_name,
                               PowServer& server)
    : network_(&network), host_name_(std::move(host_name)), server_(&server) {
  network_->add_host(host_name_,
                     [this](const std::string& from, common::BytesView payload) {
                       on_message(from, payload);
                     });
}

ServerEndpoint::ServerEndpoint(netsim::Network& network, std::string host_name,
                               PowServer& server, AsyncFrontEnd& front_end)
    : ServerEndpoint(network, std::move(host_name), server) {
  front_end_ = &front_end;
}

void ServerEndpoint::on_message(const std::string& from,
                                common::BytesView payload) {
  const auto message = decode(payload);
  if (!message) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    Response nak;
    nak.status = common::ErrorCode::kMalformedMessage;
    nak.body = "could not decode message";
    (void)network_->send(host_name_, from, nak.serialize());
    return;
  }

  if (const auto* request = std::get_if<Request>(&*message)) {
    // Trust the transport-level source over the self-reported field: a
    // client lying about its IP would otherwise bind puzzles elsewhere.
    Request effective = *request;
    effective.client_ip = from;
    if (front_end_ != nullptr) {
      // Read the id before the move: argument evaluation order is
      // unsequenced, so the same call must not both read and move from
      // `effective`.
      const std::uint64_t request_id = effective.request_id;
      WireMessage wm{from, std::move(effective)};
      stamp_envelope(wm, std::get<Request>(wm.payload).deadline_ms);
      enqueue(from, request_id, std::move(wm));
      return;
    }
    auto outcome = server_->on_request(effective);
    if (const auto* challenge = std::get_if<Challenge>(&outcome)) {
      (void)network_->send(host_name_, from, challenge->serialize());
    } else {
      (void)network_->send(host_name_, from,
                           std::get<Response>(outcome).serialize());
    }
    return;
  }

  if (const auto* submission = std::get_if<Submission>(&*message)) {
    if (front_end_ != nullptr) {
      WireMessage wm{from, *submission};
      stamp_envelope(wm, submission->deadline_ms);
      enqueue(from, submission->request_id, std::move(wm));
      return;
    }
    const Response response = server_->on_submission(*submission, from);
    (void)network_->send(host_name_, from, response.serialize());
    return;
  }

  // A server never expects Challenge/Response messages; treat as noise.
  malformed_.fetch_add(1, std::memory_order_relaxed);
}

void ServerEndpoint::stamp_envelope(WireMessage& message,
                                    std::int64_t deadline_ms) const {
  // The server's clock (possibly skewed) is the one its deadline
  // comparisons read, so the arrival stamp and the effective deadline
  // come from it too.
  message.enqueued_at = server_->now();
  message.deadline_ms = server_->effective_deadline_ms(
      deadline_ms, common::to_millis(message.enqueued_at));
  message.wall_enqueued_at = std::chrono::steady_clock::now();
}

void ServerEndpoint::enqueue(const std::string& from, std::uint64_t request_id,
                             WireMessage message) {
  if (front_end_->try_push(std::move(message))) return;
  // Backpressure: the source's shard is at capacity. Answer immediately with an
  // explicit overload NAK — never buffer without bound, never drop
  // silently — and put the refusal on the server's ledger.
  server_->note_overload();
  Response overloaded;
  overloaded.request_id = request_id;
  overloaded.status = common::ErrorCode::kUnavailable;
  overloaded.body = "server overloaded";
  overloaded.retry_after_ms = server_->retry_after_hint_ms();
  (void)network_->send(host_name_, from, overloaded.serialize());
}

// ---------------------------------------------------------------------------
// WireClientPool
// ---------------------------------------------------------------------------

WireClientPool::WireClientPool(netsim::EventLoop& loop,
                               netsim::Network& network,
                               const std::string& base_ip, std::size_t count,
                               std::string server_host, double hash_cost_us)
    : loop_(&loop),
      network_(&network),
      server_host_(std::move(server_host)),
      hash_cost_us_(hash_cost_us) {
  // add_host_group re-validates base/count/overlap; parse here only to
  // cache the numeric base for index recovery.
  const auto base = features::IpAddress::parse(base_ip);
  if (!base) {
    throw std::invalid_argument("WireClientPool: malformed base '" + base_ip +
                                "'");
  }
  base_ = base->value();
  network_->add_host_group(
      base_ip, count,
      [this](const std::string& member, const std::string& from,
             common::BytesView payload) { on_message(member, from, payload); });
  slots_.resize(count);
}

std::string WireClientPool::ip_of(std::size_t client) const {
  if (client >= slots_.size()) {
    throw std::out_of_range("WireClientPool: client index out of range");
  }
  return features::IpAddress(base_ + static_cast<std::uint32_t>(client))
      .to_string();
}

void WireClientPool::set_retry_policy(RetryPolicy policy,
                                      RequestSource source) {
  if (policy.enabled && !source) {
    throw std::invalid_argument(
        "WireClientPool: retry policy needs a RequestSource for resends");
  }
  if (policy.enabled && policy.max_attempts == 0) {
    throw std::invalid_argument(
        "WireClientPool: retry max_attempts must be >= 1");
  }
  retry_ = policy;
  request_source_ = std::move(source);
}

std::uint64_t WireClientPool::send_request(
    std::size_t client, const std::string& path,
    const features::FeatureVector& features) {
  Slot& slot = slots_.at(client);
  if (slot.pending_id != 0) {
    throw std::logic_error(
        "WireClientPool: client already has a request in flight");
  }
  if (!done_) {
    throw std::logic_error("WireClientPool: no response handler installed");
  }
  const std::string ip = ip_of(client);
  Request request;
  request.client_ip = ip;
  request.path = path;
  request.features = features;
  request.request_id = slot.next_request_id++;
  if (retry_.enabled && retry_.request_deadline > common::Duration::zero()) {
    request.deadline_ms =
        common::to_millis(loop_->now() + retry_.request_deadline);
  }
  const bool sent = network_->send(ip, server_host_, request.serialize());
  if (!sent && !retry_.enabled) {
    return 0;  // dropped by the link; single-shot mode never resolves
  }
  slot.pending_id = request.request_id;
  slot.sent_at = loop_->now();
  if (retry_.enabled) {
    // Even a dropped first attempt is registered: it is still in flight
    // from the pool's point of view, and the timer turns the silence
    // into a resend (or eventually kTimeout), so the handler fires
    // exactly once.
    slot.deadline_ms = request.deadline_ms;
    slot.attempts = 1;
    arm_timer(client, retry_.timeout);
  }
  return request.request_id;
}

void WireClientPool::arm_timer(std::size_t client, common::Duration in) {
  Slot& slot = slots_[client];
  const std::uint64_t request_id = slot.pending_id;
  slot.timer = loop_->schedule_in(
      in, [this, client, request_id] { on_timeout(client, request_id); });
}

void WireClientPool::on_timeout(std::size_t client,
                                std::uint64_t request_id) {
  Slot& slot = slots_[client];
  if (slot.pending_id != request_id) return;  // resolved in the meantime
  slot.timer = 0;
  if (slot.attempts >= retry_.max_attempts) {
    Response timed_out;
    timed_out.request_id = request_id;
    timed_out.status = common::ErrorCode::kTimeout;
    timed_out.body = "client retry budget exhausted";
    resolve(client, timed_out);
    return;
  }
  resend(client, request_id,
         retry_backoff(retry_, retry_client_key(ip_of(client)), request_id,
                       slot.attempts));
}

void WireClientPool::resend(std::size_t client, std::uint64_t request_id,
                            common::Duration wait) {
  Slot& slot = slots_[client];
  ++slot.attempts;
  slot.timer = loop_->schedule_in(wait, [this, client, request_id] {
    Slot& entry = slots_[client];
    if (entry.pending_id != request_id) return;
    // Rebuild the payload through the harness instead of storing it —
    // keeps the slot small at million-client scale.
    auto [path, features] = request_source_(client);
    Request request;
    request.client_ip = ip_of(client);
    request.path = std::move(path);
    request.features = features;
    request.request_id = request_id;  // same id: idempotent on the server
    request.deadline_ms = entry.deadline_ms;
    (void)network_->send(ip_of(client), server_host_, request.serialize());
    arm_timer(client, retry_.timeout);
  });
}

void WireClientPool::abandon(std::size_t client) {
  Slot& slot = slots_.at(client);
  if (slot.timer != 0) (void)loop_->cancel(slot.timer);
  slot.timer = 0;
  slot.pending_id = 0;
  slot.attempts = 0;
}

void WireClientPool::resolve(std::size_t client, const Response& response) {
  const common::Duration latency = loop_->now() - slots_[client].sent_at;
  abandon(client);
  done_(client, response, latency);
}

void WireClientPool::on_message(const std::string& member,
                                const std::string& from,
                                common::BytesView payload) {
  (void)from;
  // Recover the client index from the member address the group handler
  // was invoked for — O(1), no per-client registration.
  const auto ip = features::IpAddress::parse(member);
  if (!ip || ip->value() < base_) return;
  const std::uint64_t offset = ip->value() - base_;
  if (offset >= slots_.size()) return;
  const auto client = static_cast<std::size_t>(offset);

  const auto message = decode(payload);
  if (!message) return;  // noise on the wire
  if (const auto* challenge = std::get_if<Challenge>(&*message)) {
    on_challenge(client, *challenge);
  } else if (const auto* response = std::get_if<Response>(&*message)) {
    on_response(client, *response);
  }
}

void WireClientPool::on_challenge(std::size_t client,
                                  const Challenge& challenge) {
  Slot& slot = slots_[client];
  if (slot.pending_id != challenge.request_id) return;  // stale/unknown
  if (challenge_observer_) {
    challenge_observer_(client, challenge);
    if (slot.pending_id != challenge.request_id) return;  // abandoned
  }

  // Really solve (correct nonce), but charge the time to the modelled
  // CPU: attempts × hash_cost on this client's one sequential solver
  // core.
  const pow::SolveResult solved = solver_.solve(challenge.puzzle);
  ++solved_;
  const auto solve_cost = std::chrono::duration_cast<common::Duration>(
      std::chrono::duration<double, std::micro>(
          static_cast<double>(solved.attempts) * hash_cost_us_));
  const common::TimePoint start =
      std::max(loop_->now(), slot.solver_busy_until);
  slot.solver_busy_until = start + solve_cost;

  Submission submission;
  submission.request_id = challenge.request_id;
  submission.puzzle = challenge.puzzle;
  submission.solution = solved.solution;
  submission.deadline_ms = slot.deadline_ms;  // deadline propagates
  const common::Duration delay = slot.solver_busy_until - loop_->now();
  if (retry_.enabled) {
    // The attempt clock restarts from the submission's send instant:
    // solving is local progress, so only submission → response silence
    // should count against the timeout.
    if (slot.timer != 0) (void)loop_->cancel(slot.timer);
    slot.timer = 0;
    arm_timer(client, delay + retry_.timeout);
  }
  loop_->schedule_in(
      delay, [this, client, submission = std::move(submission)] {
        const bool sent = network_->send(ip_of(client), server_host_,
                                         submission.serialize());
        if (submission_observer_) {
          submission_observer_(client, submission, sent);
        }
      });
}

void WireClientPool::on_response(std::size_t client,
                                 const Response& response) {
  Slot& slot = slots_[client];
  // Ids count from 1, so an id-0 NAK (undecodable bytes) is always stray,
  // even for an idle client.
  if (slot.pending_id == 0 || slot.pending_id != response.request_id) {
    if (stray_observer_) stray_observer_(client, response);
    return;
  }
  if (retry_.enabled && response.status == common::ErrorCode::kUnavailable &&
      slot.attempts < retry_.max_attempts) {
    // Server shed the request (overload NAK, deadline, degradation):
    // honour its retry_after hint, never wait less than our own backoff.
    if (slot.timer != 0) (void)loop_->cancel(slot.timer);
    slot.timer = 0;
    const auto backoff =
        retry_backoff(retry_, retry_client_key(ip_of(client)),
                      response.request_id, slot.attempts);
    const auto hinted = std::chrono::duration_cast<common::Duration>(
        std::chrono::milliseconds(response.retry_after_ms));
    resend(client, response.request_id, std::max(backoff, hinted));
    return;
  }
  resolve(client, response);
}

}  // namespace powai::framework
