#pragma once
/// \file load_harness.hpp
/// Closed-loop end-to-end load drivers for tests and examples, two
/// flavors:
///
/// - LoadHarness: N real client threads call the PowServer entry points
///   directly (no wire), so shard contention, the atomic stats block and
///   solver cost are all exercised. Used by
///   tests/test_concurrent_server.cpp, tests/test_determinism.cpp and
///   examples/concurrent_issuance.cpp.
/// - run_wire_load: the same closed loop as *encoded bytes over the
///   simulated network*, through either the synchronous ServerEndpoint
///   path or the AsyncFrontEnd batch bridge. The two transports must
///   produce identical totals and histories, which
///   tests/test_async_front_end.cpp, tests/test_determinism.cpp and
///   tests/test_scale.cpp pin.
///
/// Neither is a benchmark: the repository's load benchmark is
/// powai_bench (bench/suite/README.md), which builds its own wire stack
/// so it can time each request.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "features/feature_vector.hpp"
#include "framework/async_front_end.hpp"
#include "framework/client.hpp"
#include "framework/server.hpp"
#include "policy/policy.hpp"
#include "reputation/model.hpp"
#include "sim/population.hpp"

namespace powai::sim {

/// One request's client-visible fate: what puzzle it was assigned (if
/// any) and how the exchange ended. The unit of the determinism
/// contract — two runs of the same workload must produce *equal*
/// records per client, byte for byte (seeds included), regardless of
/// thread counts or drain shards.
struct IssueRecord final {
  std::uint64_t request_id = 0;
  bool challenged = false;     ///< a puzzle was assigned
  std::uint64_t puzzle_id = 0; ///< 0 when !challenged
  common::Bytes seed;          ///< empty when !challenged
  unsigned difficulty = 0;     ///< 0 when !challenged
  std::int64_t issued_at_ms = 0;
  common::ErrorCode outcome = common::ErrorCode::kOk;  ///< final response

  bool operator==(const IssueRecord&) const = default;
};

/// A client's full request history, in that client's send order.
using ClientHistory = std::vector<IssueRecord>;

/// Starting value for the history-fingerprint fold (FNV-1a offset
/// basis; an empty history fingerprints to exactly this).
inline constexpr std::uint64_t kFingerprintSeed = 0xcbf29ce484222325ULL;

/// Folds one finalized IssueRecord into a running 64-bit fingerprint
/// (FNV-1a over every field, seed bytes included). Fingerprints are the
/// scale-friendly form of the determinism contract: a 10^5-client
/// golden stores one u64 per client instead of full histories, yet any
/// field drift — ids, seeds, difficulties, outcomes, order — changes
/// the value.
[[nodiscard]] std::uint64_t fold_issue_record(std::uint64_t fingerprint,
                                              const IssueRecord& record);

/// Fingerprint of a whole history: fold_issue_record over each record
/// in order, from kFingerprintSeed. Matches WireLoadReport::
/// history_fingerprints for the same client by construction.
[[nodiscard]] std::uint64_t history_fingerprint(const ClientHistory& history);

/// Builds the IssueRecord for one completed in-process round trip —
/// the single definition both the harness and hand-rolled serial
/// drivers (tests, examples) must share, so the golden comparison can
/// never drift field-by-field from the capture.
[[nodiscard]] IssueRecord make_issue_record(const framework::RoundTrip& trip);

/// Wire-mode sibling: the (not yet finalized) record for a received
/// challenge; the outcome field is filled when the final response
/// arrives. Same single-definition rationale as the RoundTrip overload.
[[nodiscard]] IssueRecord make_issue_record(
    const framework::Challenge& challenge);

/// In-process run shape. Every client requests path "/" and solves each
/// puzzle to completion on one solver thread.
struct LoadHarnessConfig final {
  std::size_t client_threads = 4;
  std::size_t requests_per_client = 64;

  /// Record per-client IssueRecord histories into LoadReport::histories
  /// (off by default).
  bool capture_history = false;
};

/// Aggregate outcome of one load run. Client-side tallies and the
/// server-side counter delta are reported separately so double counting
/// (the concurrency bug class this harness exists to catch) is visible.
struct LoadReport final {
  double wall_s = 0.0;
  std::uint64_t round_trips = 0;     ///< completed request→response loops
  std::uint64_t served = 0;          ///< responses with kOk
  std::uint64_t rate_limited = 0;
  std::uint64_t rejected_other = 0;  ///< any other terminal error
  std::uint64_t solve_attempts = 0;  ///< total hashes clients spent
  std::uint64_t clients = 0;         ///< client threads in this run

  /// PowServer::memory_bytes() sampled after the run — what the
  /// per-client server structures (rate limiter, reputation cache,
  /// replay cache) actually cost for this population.
  std::uint64_t server_memory_bytes = 0;

  /// Server counters accumulated during this run only.
  framework::ServerStats server_delta;

  /// Per-client histories (index = client thread), populated only when
  /// LoadHarnessConfig::capture_history is set.
  std::vector<ClientHistory> histories;

  [[nodiscard]] double issued_per_s() const;
  [[nodiscard]] double served_per_s() const;
  /// Aggregate client hashing throughput (solve_attempts / wall): the
  /// end-to-end view of the SHA-256 hot path — midstate + dispatch wins
  /// in the solver show up here directly.
  [[nodiscard]] double hashes_per_s() const;
  /// Server-side resident bytes per client (0 when clients == 0).
  [[nodiscard]] double server_bytes_per_client() const;
};

class LoadHarness final {
 public:
  /// \p server must outlive the harness. Throws std::invalid_argument on
  /// zero client_threads or requests_per_client.
  explicit LoadHarness(framework::PowServer& server,
                       LoadHarnessConfig config = {});

  /// Runs the closed loop: every client thread performs
  /// requests_per_client full round trips, all released together.
  /// Client i sends `features[i % features.size()]` from the source
  /// address load_client_ip(i), so per-IP state (rate limiter,
  /// reputation cache) is exercised per client. Throws on empty
  /// \p features.
  [[nodiscard]] LoadReport run(
      const std::vector<features::FeatureVector>& features);

 private:
  framework::PowServer* server_;
  LoadHarnessConfig config_;
};

/// Source address for client \p index ("10.a.b.c"; unique per index
/// below 2^24).
[[nodiscard]] std::string load_client_ip(std::size_t index);

// ---------------------------------------------------------------------------
// Wire mode
// ---------------------------------------------------------------------------

/// Wire-mode run shape. The link is fixed and deterministic (15 ms, no
/// jitter, no loss), so a synchronous and an asynchronous run of the
/// same configuration produce identical totals and histories. Clients
/// request path "/" from 198.51.100.250, model 38 µs per hash, and do
/// not retry; the population seed (when paced) is 1.
struct WireLoadConfig final {
  std::size_t clients = 4;
  std::size_t requests_per_client = 8;

  /// false = synchronous ServerEndpoint (inline service on the loop
  /// thread); true = AsyncFrontEnd batch bridge (front_end.drain_shards
  /// drain threads over the source-partitioned queue). With
  /// front_end.start_paused set, the wire is first played out against
  /// the paused drain (a deterministic worst-case pile-up), then the
  /// backlog is drained.
  bool async = true;
  framework::AsyncFrontEndConfig front_end;

  /// Record per-client IssueRecord histories into
  /// WireLoadReport::histories (off by default).
  bool capture_history = false;

  /// Fold each client's finalized records into a 64-bit fingerprint
  /// (WireLoadReport::history_fingerprints) — O(1) memory per client,
  /// the form the 10^5-client determinism goldens use. Independent of
  /// capture_history; when both are set, history_fingerprint(
  /// histories[i]) == history_fingerprints[i].
  bool capture_fingerprints = false;

  /// Arrival pacing: when true, client i's n-th request is scheduled
  /// ClientPopulation::gap_before(i, n, now) after its previous exchange
  /// finished (think time) instead of firing back-to-back — the knob
  /// that turns the closed loop into a heavy-tailed open-ish load.
  /// Gaps and weights derive from a fixed population seed, so paced
  /// runs keep the same determinism contract as unpaced ones.
  bool pace_arrivals = false;
  ArrivalConfig arrivals;

  /// Heavy-tailed per-client activity (see PopulationConfig);
  /// 0 = uniform. Only meaningful with pace_arrivals.
  double weight_alpha = 0.0;
};

/// Outcome of one wire-mode run. Client-side tallies (what responses
/// said) and the server-side counter delta are reported separately so
/// lost or double-counted messages are visible, exactly like LoadReport.
struct WireLoadReport final {
  std::uint64_t sent = 0;        ///< requests handed to the wire
  std::uint64_t answered = 0;    ///< final responses that arrived
  std::uint64_t served = 0;      ///< … with kOk
  std::uint64_t overloaded = 0;  ///< … with kUnavailable (backpressure)
  std::uint64_t rejected = 0;    ///< … with any other error
  std::uint64_t unanswered = 0;  ///< sent but never answered
  std::uint64_t events = 0;      ///< loop events executed
  common::Duration sim_elapsed{};  ///< simulated duration of the run
  std::uint64_t messages_sent = 0;  ///< wire messages (all four legs)
  std::uint64_t clients = 0;        ///< population size of this run

  /// Resident-memory accounting, sampled after the run: what each layer
  /// costs for this population (see docs/ARCHITECTURE.md, "Scale model
  /// & memory accounting").
  std::uint64_t server_memory_bytes = 0;   ///< PowServer::memory_bytes()
  std::uint64_t network_memory_bytes = 0;  ///< netsim::Network::memory_bytes()
  std::uint64_t client_memory_bytes = 0;   ///< pool slots + population keys

  framework::ServerStats server_delta;
  framework::FrontEndStats front_end;  ///< zeros in synchronous mode

  /// Per-client histories (index = client), populated only when
  /// WireLoadConfig::capture_history is set. Identical across sync,
  /// async, and any drain_shards/verify_threads setting by the
  /// determinism contract.
  std::vector<ClientHistory> histories;

  /// Per-client 64-bit history fingerprints (index = client), populated
  /// only when WireLoadConfig::capture_fingerprints is set. Same
  /// determinism contract as histories at a millionth the memory.
  std::vector<std::uint64_t> history_fingerprints;

  /// Server-side resident bytes per client (0 when clients == 0).
  [[nodiscard]] double server_bytes_per_client() const {
    return clients > 0 ? static_cast<double>(server_memory_bytes) /
                             static_cast<double>(clients)
                       : 0.0;
  }
  /// Client+network simulation bytes per client — the number that must
  /// stay O(1) for the harness itself to reach 10^6 clients.
  [[nodiscard]] double sim_bytes_per_client() const {
    return clients > 0 ? static_cast<double>(network_memory_bytes +
                                             client_memory_bytes) /
                             static_cast<double>(clients)
                       : 0.0;
  }
};

/// Runs the closed loop over the netsim transport: \p cfg.clients wire
/// clients each complete \p cfg.requests_per_client request→response
/// exchanges (client i sends `features[i % features.size()]` from
/// load_client_ip(i)), against a PowServer built from \p server_cfg
/// reading the simulated clock. Builds its own EventLoop/Network.
/// Throws std::invalid_argument on empty \p features or zero counts.
[[nodiscard]] WireLoadReport run_wire_load(
    const reputation::IReputationModel& model, const policy::IPolicy& policy,
    framework::ServerConfig server_cfg,
    const std::vector<features::FeatureVector>& features,
    WireLoadConfig cfg = {});

}  // namespace powai::sim
