#pragma once
/// \file server.hpp
/// The AI-assisted PoW server — the wiring of Fig. 1's server side:
///
///   (2) the AI model inspects the request's features → reputation score
///   (3) the policy maps the score → puzzle difficulty
///   (4) the puzzle generator issues an authenticated puzzle
///   (5) the verifier checks the returned solution
///   (7) the resource is served on success
///
/// Every component arrives through an interface, preserving the paper's
/// modularity claim: any IReputationModel, any IPolicy. The server also
/// hosts the supporting machinery a deployment needs: a reputation cache,
/// a per-IP rate limiter, and counters for every outcome.
///
/// Thread-safety: on_request, on_submission, and both batch entry points
/// may be called concurrently from any number of threads. Outcome
/// counters are relaxed atomics (stats() snapshots them), every shared
/// container is mutex-striped, and the generator/verifier pair is
/// internally synchronized. The model and policy passed in must be
/// safe for concurrent const calls (all in-tree ones are: they are
/// immutable after fit()/construction).
///
/// Determinism: the issuance path is lock-free *and* order-independent.
/// Each request's puzzle id is a keyed PRF of (client_ip, request_id),
/// its seed a pure function of (master_secret, puzzle_id), and its
/// policy randomness a counter-based stream keyed by (policy_seed,
/// puzzle_id) — so what a given request receives does not depend on
/// which thread, batch, or drain shard served it, and whole simulated
/// histories are bit-identical across serial and parallel runs (the
/// invariant tests/test_determinism.cpp pins). Corollary: request_id is
/// an idempotency key — re-sending the same (client_ip, request_id)
/// yields the same puzzle, and the replay cache still caps redemption
/// at once.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "features/ip_address.hpp"
#include "framework/degrade.hpp"
#include "framework/protocol.hpp"
#include "framework/rate_limiter.hpp"
#include "policy/policy.hpp"
#include "pow/batch_verifier.hpp"
#include "pow/generator.hpp"
#include "pow/verifier.hpp"
#include "reputation/model.hpp"
#include "reputation/sharded_cache.hpp"

namespace powai::framework {

/// Server configuration.
struct ServerConfig final {
  /// Secret shared between the generator and verifier (non-empty).
  common::Bytes master_secret;

  /// When false the server serves every request immediately — the
  /// no-defense baseline the throttling experiment compares against.
  bool pow_enabled = true;

  /// Memoize reputation scores per IP (EWMA + TTL).
  bool reputation_cache_enabled = true;
  reputation::CacheConfig cache;

  /// Lock stripes for the reputation cache (rounded up to a power of
  /// two); the entry budget in `cache.max_entries` is global.
  std::size_t cache_shards = 16;

  /// Worker threads for the batch entry points (on_request_batch and
  /// on_submission_batch); 0 = hardware concurrency. The pool is created
  /// lazily on the first batch call, so servers that only ever handle
  /// one message at a time never spawn threads.
  std::size_t verify_threads = 0;

  /// Hard per-IP ceiling on challenge issuance.
  bool rate_limiter_enabled = false;
  RateLimiterConfig rate_limiter;

  pow::VerifierConfig verifier;

  /// Body returned with a successful response.
  std::string resource_body = "resource";

  /// Seed for the per-request policy randomness streams (Policy 3).
  /// Each request draws from common::stream_rng(policy_seed, puzzle_id)
  /// — reproducible from this one seed, lock-free, and independent of
  /// arrival order. Fixed default keeps experiments reproducible.
  std::uint64_t policy_seed = 0x9069'0ce5'7a37'b00fULL;

  /// Latest deadline the server grants a message, counted from its
  /// arrival. A message that sets no deadline (deadline_ms == 0) gets
  /// arrival + default_deadline; one that sets a later deadline is
  /// clamped to it, so a client cannot exempt its work from deadline
  /// shedding by asking for a far-future deadline. Zero (the default)
  /// disables both: messages without a deadline are never shed and
  /// client deadlines are taken as sent.
  common::Duration default_deadline{0};

  /// Overload degradation ladder (disabled by default; see degrade.hpp).
  /// Its retry_after_base_ms also seeds the retry_after hint attached to
  /// deadline sheds even while the ladder itself is off.
  DegradeLadderConfig degrade;
};

/// Outcome counters (monotonic). Plain snapshot struct — the live
/// counters inside the server are relaxed atomics; stats() materializes
/// them into this.
struct ServerStats final {
  std::uint64_t requests = 0;
  std::uint64_t challenges_issued = 0;
  std::uint64_t served = 0;
  std::uint64_t served_without_pow = 0;
  std::uint64_t rejected_rate_limited = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_bad_solution = 0;
  std::uint64_t rejected_expired = 0;
  std::uint64_t rejected_replay = 0;
  std::uint64_t rejected_binding = 0;

  /// Messages refused at the transport for backpressure (async front-end
  /// queue full). Reported by the front end via note_overload() so one
  /// stats block accounts for every wire message's fate.
  std::uint64_t rejected_overload = 0;

  /// Deadline/overload sheds, stage by stage. All deterministic under
  /// the frozen-clock pump (they depend only on sim-time now vs. the
  /// message's deadline and the ladder's deterministic level), so they
  /// participate in the campaign fingerprint.
  std::uint64_t shed_deadline_requests = 0;    ///< expired before scoring
  std::uint64_t shed_deadline_submissions = 0; ///< expired before verification
  std::uint64_t shed_queue_requests = 0;       ///< expired at queue pop
  std::uint64_t shed_queue_submissions = 0;    ///< expired at queue pop
  std::uint64_t shed_degraded_requests = 0;    ///< L2+/L3 issuance shed
  std::uint64_t shed_degraded_submissions = 0; ///< L3 reputation-gated shed
  std::uint64_t difficulty_sum = 0;  ///< over issued challenges

  /// All submissions shed without verification — the work the client
  /// already paid for that the server discarded (campaigns bound it).
  [[nodiscard]] std::uint64_t shed_submissions_total() const {
    return shed_deadline_submissions + shed_queue_submissions +
           shed_degraded_submissions;
  }

  [[nodiscard]] double mean_difficulty() const {
    return challenges_issued > 0
               ? static_cast<double>(difficulty_sum) /
                     static_cast<double>(challenges_issued)
               : 0.0;
  }

  /// Counter-wise difference (for before/after deltas around a run).
  /// Counters are monotonic, so subtracting an earlier snapshot from a
  /// later one never underflows.
  [[nodiscard]] ServerStats operator-(const ServerStats& rhs) const;

  bool operator==(const ServerStats&) const = default;
};

/// Trace of one scoring decision (diagnostics/experiments), produced
/// per call by on_request's out-parameter. The server keeps no copy, so
/// concurrent callers each see exactly their own decision.
struct ScoringTrace final {
  double score = 0.0;
  policy::Difficulty difficulty = 0;
  bool from_cache = false;
};

class PowServer final {
 public:
  /// \p clock, \p model, and \p pol must outlive the server. The model
  /// must already be fitted. Throws std::invalid_argument on an empty
  /// master secret or an unfitted model.
  PowServer(const common::Clock& clock, const reputation::IReputationModel& model,
            const policy::IPolicy& pol, ServerConfig config);

  /// Steps 1-4: returns a Challenge normally; returns a Response directly
  /// when the request is malformed, rate-limited, or PoW is disabled.
  /// Thread-safe. When \p trace is non-null and a challenge is issued,
  /// the scoring decision behind it is written there (the race-free way
  /// to observe traces under concurrent callers).
  [[nodiscard]] std::variant<Challenge, Response> on_request(
      const Request& request, ScoringTrace* trace = nullptr);

  /// Batch form of on_request: scores and issues all requests in
  /// parallel on the server's thread pool (created lazily,
  /// `verify_threads` workers). Result[i] corresponds to requests[i].
  /// Thread-safe, including concurrently with the other entry points.
  [[nodiscard]] std::vector<std::variant<Challenge, Response>>
  on_request_batch(std::span<const Request> requests);

  /// Steps 5-7: verifies and serves. \p observed_ip is the transport-
  /// level source address (empty skips the binding check). Thread-safe.
  [[nodiscard]] Response on_submission(const Submission& submission,
                                       const std::string& observed_ip = {});

  /// Batch form of on_submission: verifies all submissions in parallel
  /// on the server's thread pool. Result[i] corresponds to
  /// submissions[i]. \p observed_ips must be empty (skip the binding
  /// check everywhere) or one address per submission. Throws
  /// std::invalid_argument on a length mismatch. Thread-safe, including
  /// concurrently with the other entry points.
  [[nodiscard]] std::vector<Response> on_submission_batch(
      std::span<const Submission> submissions,
      std::span<const std::string> observed_ips = {});

  /// Records one transport-level backpressure rejection (async front-end
  /// queue full). The server never sees the message itself; the endpoint
  /// reports the refusal here so ServerStats stays the single ledger a
  /// load harness can balance against client-side tallies. Thread-safe.
  void note_overload();

  /// Records one message dropped at queue pop because its deadline had
  /// already passed (the front end answers it with kUnavailable without
  /// handing it to the server). Thread-safe.
  void note_queue_shed(bool is_request);

  /// Feeds one popped message's queue sojourn into the degradation
  /// ladder's pressure signal. \p now_ms is the pop-time clock reading,
  /// \p sojourn_ms how long the message sat queued. Thread-safe.
  void note_queue_sojourn(std::int64_t now_ms, double sojourn_ms);

  /// The effective absolute deadline for a message carrying
  /// \p deadline_ms, arriving at \p arrival_ms. With a default_deadline
  /// configured it is min(\p deadline_ms, arrival + default_deadline),
  /// or the latter when \p deadline_ms is 0 (unset); without one it is
  /// \p deadline_ms unchanged (0 = never shed).
  [[nodiscard]] std::int64_t effective_deadline_ms(
      std::int64_t deadline_ms, std::int64_t arrival_ms) const;

  /// Level-scaled retry_after hint attached to shed responses.
  [[nodiscard]] std::uint32_t retry_after_hint_ms() const;

  /// Current degradation ladder level (0 when the ladder is disabled).
  [[nodiscard]] int degrade_level() const { return ladder_.level(); }

  /// Ladder snapshot (max level feeds the campaign recovery invariant).
  [[nodiscard]] DegradeStats degrade_stats() const { return ladder_.stats(); }

  /// Folds ladder windows elapsed up to \p now_ms — call at end of run
  /// so trailing calm windows count toward recovery to level 0.
  void poll_degrade(std::int64_t now_ms) { ladder_.poll(now_ms); }

  /// Snapshot of the outcome counters (relaxed loads). Totals are exact
  /// once concurrent callers have returned; mid-flight snapshots are
  /// monotone per counter but not a consistent cut across counters.
  [[nodiscard]] ServerStats stats() const;

  /// Estimated resident footprint of the per-client server structures —
  /// rate-limiter buckets, reputation-cache entries, and the replay
  /// cache. The numerator of the scale harnesses' bytes/client
  /// accounting; exact when quiescent. Thread-safe.
  [[nodiscard]] std::size_t memory_bytes() const;

  [[nodiscard]] const ServerConfig& config() const { return config_; }

  /// The server's notion of now (its injected — possibly skewed — clock).
  /// Endpoints use it to timestamp arrivals so deadline math and the
  /// server's comparisons read the same clock.
  [[nodiscard]] common::TimePoint now() const { return clock_->now(); }
  [[nodiscard]] std::int64_t now_ms() const {
    return common::to_millis(clock_->now());
  }

 private:
  /// Relaxed-atomic mirror of ServerStats: counters increment
  /// independently on the hot path, snapshot() re-materializes the plain
  /// struct.
  struct AtomicStats {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> challenges_issued{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> served_without_pow{0};
    std::atomic<std::uint64_t> rejected_rate_limited{0};
    std::atomic<std::uint64_t> rejected_malformed{0};
    std::atomic<std::uint64_t> rejected_bad_solution{0};
    std::atomic<std::uint64_t> rejected_expired{0};
    std::atomic<std::uint64_t> rejected_replay{0};
    std::atomic<std::uint64_t> rejected_binding{0};
    std::atomic<std::uint64_t> rejected_overload{0};
    std::atomic<std::uint64_t> shed_deadline_requests{0};
    std::atomic<std::uint64_t> shed_deadline_submissions{0};
    std::atomic<std::uint64_t> shed_queue_requests{0};
    std::atomic<std::uint64_t> shed_queue_submissions{0};
    std::atomic<std::uint64_t> shed_degraded_requests{0};
    std::atomic<std::uint64_t> shed_degraded_submissions{0};
    std::atomic<std::uint64_t> difficulty_sum{0};

    [[nodiscard]] ServerStats snapshot() const;
  };

  /// Folds one verification outcome into the stats and builds the
  /// client-facing Response (shared by single and batch submission).
  Response finalize_submission(std::uint64_t request_id,
                               const common::Status& status);

  /// Pre-verification overload checks for one submission (deadline shed,
  /// L3 reputation gate, L1 effective-TTL). Returns the final Response
  /// when the submission is resolved without verification, std::nullopt
  /// when it should proceed to the verifier. Counts what it sheds.
  [[nodiscard]] std::optional<Response> precheck_submission(
      const Submission& submission, std::int64_t arrival_ms, int level);

  /// The lazily-created pool both batch entry points share.
  common::ThreadPool& ensure_pool();

  /// Builds the kUnavailable shed response with the backoff hint.
  [[nodiscard]] Response shed_response(std::uint64_t request_id,
                                       const char* detail) const;

  const common::Clock* clock_;
  const reputation::IReputationModel* model_;
  const policy::IPolicy* policy_;
  ServerConfig config_;
  pow::PuzzleGenerator generator_;
  pow::Verifier verifier_;
  reputation::ShardedReputationCache cache_;
  RateLimiter rate_limiter_;
  DegradeLadder ladder_;
  std::once_flag pool_once_;
  std::unique_ptr<common::ThreadPool> pool_;  // lazy
  std::once_flag batch_verifier_once_;
  std::unique_ptr<pow::BatchVerifier> batch_verifier_;  // lazy, borrows pool_
  AtomicStats stats_;
};

}  // namespace powai::framework
