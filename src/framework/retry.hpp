#pragma once
/// \file retry.hpp
/// Client-side retry/timeout/backoff policy for the wire clients. The
/// overload-control loop has two halves: the server sheds work it
/// cannot finish in time (deadline checks + degradation ladder, see
/// server.hpp / degrade.hpp), and the client turns silence or an
/// explicit kUnavailable into a bounded, deterministic retry schedule
/// instead of either hanging forever or hammering the server.
///
/// Semantics (WireClientPool with a policy installed):
/// - Every attempt reuses the *same request id*, so server-side
///   idempotent issuance (keyed per-id derivation) makes a retry
///   converge on the identical challenge — retries can never double
///   count or double-serve.
/// - A per-attempt timeout bounds request → response. Timer expiry
///   resends after a capped exponential backoff; after max_attempts the
///   caller's callback fires exactly once with kTimeout.
/// - A kUnavailable response (shed, overflow, or queue-expired) is
///   retried internally, honouring the server's retry_after_ms hint
///   (the wait is max(backoff, hint)); when attempts run out the last
///   response is delivered as-is.
/// - Backoff jitter is drawn from common::stream_rng keyed by
///   (client, request id, attempt) — a pure function of the tuple, so
///   whole retry schedules replay bit-for-bit from the policy seed no
///   matter how many clients interleave.
///
/// With a policy enabled a request dropped by the link is *still*
/// registered and its timer armed, which closes the long-standing
/// liveness hole where send_request returned 0 and the callback never
/// fired (transport.hpp used to tell callers to "pair with a timeout";
/// now the client owns one).

#include <cstdint>
#include <string>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace powai::framework {

/// Knobs for the client retry loop. Default-constructed = disabled, so
/// existing single-shot behaviour is untouched until a caller opts in.
struct RetryPolicy final {
  /// Master switch. When false every other field is ignored.
  bool enabled = false;

  /// Per-attempt timeout: request sent → response expected within this
  /// (simulated time). Expiry triggers a resend or, on the last
  /// attempt, a synthetic kTimeout delivered to the caller.
  common::Duration timeout = std::chrono::seconds(2);

  /// Total send attempts (first try included). Must be >= 1.
  std::size_t max_attempts = 4;

  /// Backoff before attempt k+1 is base * 2^(k-1), capped below.
  common::Duration backoff_base = std::chrono::milliseconds(100);
  common::Duration backoff_cap = std::chrono::seconds(5);

  /// Uniform jitter fraction: the wait is scaled by a factor drawn
  /// from [1 - jitter_frac, 1 + jitter_frac]. Zero = deterministic
  /// un-jittered schedule.
  double jitter_frac = 0.2;

  /// Seed for the jitter stream (combined with client + request id +
  /// attempt, see retry_backoff) — one number reproduces every
  /// client's whole schedule.
  std::uint64_t jitter_seed = 0;

  /// When positive, requests are stamped with an absolute deadline of
  /// send-time + this, propagated over the wire so every server stage
  /// can shed the request once it cannot matter any more. Zero = leave
  /// the deadline to the server's default_deadline.
  common::Duration request_deadline{0};
};

/// Stable 64-bit key for a client identity string (its IP); FNV-1a, so
/// the jitter stream derivation is platform-independent.
[[nodiscard]] std::uint64_t retry_client_key(const std::string& ip);

/// The wait before attempt `attempt + 1` (attempt counts completed
/// tries, so the first retry passes 1): capped exponential backoff with
/// multiplicative jitter from stream_rng(jitter_seed, mix(client_key,
/// request_id, attempt)). Pure function of its arguments.
[[nodiscard]] common::Duration retry_backoff(const RetryPolicy& policy,
                                             std::uint64_t client_key,
                                             std::uint64_t request_id,
                                             std::size_t attempt);

}  // namespace powai::framework
