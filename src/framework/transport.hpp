#pragma once
/// \file transport.hpp
/// Glue between the framework and the simulated network: the full
/// protocol (encoded bytes, not function calls) running over
/// netsim::Network hosts. Used by the integration tests and the
/// end-to-end wire bench; production deployments would swap the netsim
/// transport for sockets without touching PowServer/protocol code.
///
/// Convention: a host's network name is its IP address in dotted-quad
/// form, so the transport-level source of a message doubles as the
/// observed client IP for puzzle binding.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "features/ip_address.hpp"
#include "framework/client.hpp"
#include "framework/protocol.hpp"
#include "framework/request_queue.hpp"
#include "framework/retry.hpp"
#include "framework/server.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "pow/solver.hpp"

namespace powai::framework {

class AsyncFrontEnd;

/// Server side: registers a host and answers protocol messages with the
/// wrapped PowServer. Malformed payloads get a kMalformedMessage
/// response (request id 0, since none could be parsed).
///
/// Two service modes:
/// - **Synchronous** (3-arg constructor): each decoded message is handed
///   to the server inline on the event-loop thread — simple, serial, the
///   baseline the async path is checked against.
/// - **Asynchronous** (constructor taking an AsyncFrontEnd): decoded
///   messages are routed into the front end's sharded queues
///   (partitioned by source IP) for its drain threads to batch onto the
///   server's thread pool. When the source's shard is full the endpoint
///   answers kUnavailable immediately (explicit backpressure) and
///   reports the refusal via PowServer::note_overload().
class ServerEndpoint final {
 public:
  /// Synchronous mode. \p network and \p server must outlive the
  /// endpoint. Registers host \p host_name on construction.
  ServerEndpoint(netsim::Network& network, std::string host_name,
                 PowServer& server);

  /// Asynchronous mode: decoded messages go to \p front_end, which must
  /// outlive the endpoint too.
  ServerEndpoint(netsim::Network& network, std::string host_name,
                 PowServer& server, AsyncFrontEnd& front_end);

  ServerEndpoint(const ServerEndpoint&) = delete;
  ServerEndpoint& operator=(const ServerEndpoint&) = delete;

  [[nodiscard]] const std::string& host_name() const { return host_name_; }

  /// Messages whose decode failed (diagnostics). Atomic so monitoring
  /// threads may read it while completions run on pool threads.
  [[nodiscard]] std::uint64_t malformed_count() const {
    return malformed_.load(std::memory_order_relaxed);
  }

 private:
  void on_message(const std::string& from, common::BytesView payload);

  /// Stamps the deadline envelope (arrival instants + effective
  /// deadline, all on the server's clock) onto \p message.
  void stamp_envelope(WireMessage& message, std::int64_t deadline_ms) const;

  /// Async mode: pushes \p message, or sends the overload NAK for
  /// \p request_id back to \p from when the source's shard is full.
  void enqueue(const std::string& from, std::uint64_t request_id,
               WireMessage message);

  netsim::Network* network_;
  std::string host_name_;
  PowServer* server_;
  AsyncFrontEnd* front_end_ = nullptr;  ///< non-null = asynchronous mode
  std::atomic<std::uint64_t> malformed_{0};
};

/// Client side: drives request → challenge → solve → submission →
/// response over the wire for N clients through a single
/// Network::add_host_group registration (client i lives at base + i).
/// This is the framework's only client state machine: the wire benches,
/// the examples and the fault-injection campaigns all run their clients
/// on it, so retry, timeout and backoff rules live here once.
/// Each client is one fixed-size slot (request counter, in-flight id,
/// timestamps, retry state); one stateless solver is shared by all of
/// them. That is what lets run_wire_load model 10^5–10^6 clients, and a
/// pool of one is the single-client case.
///
/// Per-client request ids count from 1. Challenges are really solved
/// (the submitted nonce is correct), but the *time* a solve occupies is
/// modelled as attempts × hash_cost on one sequential solver core per
/// client and scheduled on the event loop, so simulated latencies are
/// hardware-independent. The client index is recovered from the
/// transport-level member address. Each client has at most one request
/// in flight; a closed loop satisfies that by construction, and a
/// caller wanting N concurrent requests uses N clients.
///
/// Three seams let a harness steer or watch clients without a second
/// state machine; each costs one null check when unset:
/// - abandon(): drop the in-flight request unresolved (a client that
///   takes a challenge and never submits);
/// - the submission observer: sees every submission as it goes to the
///   network, and whether the link took it;
/// - the stray-response observer: sees responses that do not answer the
///   request in flight (answers to replayed or already-settled
///   submissions, NAKs for undecodable bytes), which the response
///   handler never receives.
class WireClientPool final {
 public:
  /// Invoked with the client index, final response, and request→response
  /// latency.
  using Callback = std::function<void(std::size_t client,
                                      const Response& response,
                                      common::Duration latency)>;

  /// Invoked on the loop thread for every challenge a pool client
  /// accepts (before solving) — the history/fingerprint capture hook.
  using ChallengeObserver =
      std::function<void(std::size_t client, const Challenge& challenge)>;

  /// Invoked on the loop thread when a modelled solve ends and its
  /// submission is handed to the network; \p sent is false when the
  /// link dropped it.
  using SubmissionObserver = std::function<void(
      std::size_t client, const Submission& submission, bool sent)>;

  /// Invoked on the loop thread for a response whose request id is not
  /// the one \p client has in flight.
  using StrayObserver =
      std::function<void(std::size_t client, const Response& response)>;

  /// Re-derives (path, features) for a client's resend. The pool keeps
  /// per-client slots deliberately small, so instead of storing each
  /// request's payload it asks the harness to rebuild it — which every
  /// harness can do, because payloads are a pure function of the client
  /// index and, where they vary, of the request in flight (the only one
  /// a client has).
  using RequestSource = std::function<std::pair<
      std::string, features::FeatureVector>(std::size_t client)>;

  /// Registers one host group covering addresses base_ip .. base_ip +
  /// count - 1 (client i lives at base_ip + i). \p loop and \p network
  /// must outlive the pool. Throws std::invalid_argument on a malformed
  /// or wrapping range (via Network::add_host_group) or count == 0.
  WireClientPool(netsim::EventLoop& loop, netsim::Network& network,
                 const std::string& base_ip, std::size_t count,
                 std::string server_host, double hash_cost_us = 38.0);

  WireClientPool(const WireClientPool&) = delete;
  WireClientPool& operator=(const WireClientPool&) = delete;

  /// Response sink shared by all clients; must be set before the first
  /// send_request. Pass an empty function to clear.
  void set_response_handler(Callback done) { done_ = std::move(done); }

  /// The observer may call abandon() for the challenged client; the
  /// challenge is then not solved.
  void set_challenge_observer(ChallengeObserver observer) {
    challenge_observer_ = std::move(observer);
  }

  void set_submission_observer(SubmissionObserver observer) {
    submission_observer_ = std::move(observer);
  }

  void set_stray_observer(StrayObserver observer) {
    stray_observer_ = std::move(observer);
  }

  /// Installs the retry/timeout/backoff policy for every pool client
  /// (see retry.hpp): exactly-once resolution, kTimeout after
  /// max_attempts, internal kUnavailable retries honouring the server's
  /// retry_after hint, and same-id resends, so server-side idempotent
  /// issuance serves a retried request at most once. Requests are
  /// stamped with policy.request_deadline. \p source must be non-empty
  /// when the policy is enabled; it rebuilds (path, features) for
  /// resends. Call before the first send_request; replacing the policy
  /// mid-flight is undefined.
  void set_retry_policy(RetryPolicy policy, RequestSource source);

  /// Sends one request from client \p client. Returns the request id, or
  /// 0 if the link dropped it (the response handler never fires for a
  /// dropped request). With a retry policy installed the id is always
  /// returned and the handler always fires exactly once (dropped
  /// attempts are retried; exhaustion resolves kTimeout). Throws
  /// std::out_of_range on a bad index, std::logic_error when the client
  /// already has a request in flight or no response handler is
  /// installed.
  std::uint64_t send_request(std::size_t client, const std::string& path,
                             const features::FeatureVector& features);

  /// Drops client \p client's in-flight request without resolving it:
  /// cancels its timer and frees the slot, and the response handler
  /// never fires for it. A later answer to it reaches the stray
  /// observer. No-op when nothing is in flight. Throws std::out_of_range
  /// on a bad index.
  void abandon(std::size_t client);

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Client i's transport address (base_ip + i, dotted quad).
  [[nodiscard]] std::string ip_of(std::size_t client) const;

  /// Challenges answered so far, across all clients (diagnostics).
  [[nodiscard]] std::uint64_t challenges_solved() const { return solved_; }

  /// Resident footprint: the pool object plus its slot table, so a
  /// client costs sizeof(Slot) whatever the population size.
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(WireClientPool) + slots_.capacity() * sizeof(Slot);
  }

 private:
  /// Compact per-client state: what one client with at most one request
  /// in flight needs. Retry state rides along as three plain words;
  /// request payloads are re-derived through the RequestSource instead
  /// of being stored.
  struct Slot {
    std::uint64_t next_request_id = 1;
    std::uint64_t pending_id = 0;  ///< 0 = nothing in flight
    common::TimePoint sent_at{};
    common::TimePoint solver_busy_until{};
    std::int64_t deadline_ms = 0;  ///< propagated on every attempt
    std::uint32_t attempts = 0;    ///< sends so far for pending_id
    netsim::EventId timer = 0;     ///< pending timeout/resend event
  };

  void on_message(const std::string& member, const std::string& from,
                  common::BytesView payload);
  void on_challenge(std::size_t client, const Challenge& challenge);
  void on_response(std::size_t client, const Response& response);

  /// Arms \p client's per-attempt timeout, firing on_timeout after
  /// \p in (the attempt timeout plus any modelled solve delay).
  void arm_timer(std::size_t client, common::Duration in);

  /// Timer expiry: resend after backoff, or resolve with kTimeout once
  /// the attempt budget is spent.
  void on_timeout(std::size_t client, std::uint64_t request_id);

  /// Schedules attempt N+1 after \p wait (backoff / retry_after hint).
  void resend(std::size_t client, std::uint64_t request_id,
              common::Duration wait);

  /// Fires the response handler exactly once and frees the slot.
  void resolve(std::size_t client, const Response& response);

  netsim::EventLoop* loop_;
  netsim::Network* network_;
  std::uint32_t base_ = 0;  ///< parsed base_ip; client i at base_ + i
  std::string server_host_;
  double hash_cost_us_;
  pow::Solver solver_;  ///< stateless — shared by every client
  Callback done_;
  ChallengeObserver challenge_observer_;
  SubmissionObserver submission_observer_;
  StrayObserver stray_observer_;
  RetryPolicy retry_;
  RequestSource request_source_;
  std::uint64_t solved_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace powai::framework
