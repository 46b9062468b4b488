#pragma once
/// \file async_front_end.hpp
/// The asynchronous transport front end: decouples wire-message arrival
/// from server execution so the batch entry points PR 2 built
/// (on_request_batch / on_submission_batch) are reachable from the wire.
///
/// Data flow (see docs/ARCHITECTURE.md for the full diagram):
///
///   netsim::EventLoop (loop thread)
///     └─ ServerEndpoint::on_message — decode, route by source IP into
///        one of `drain_shards` RequestQueues (AsyncFrontEnd::try_push)
///          └─ per-shard drain thread: pop up to max_batch (whatever is
///             pending — adaptive batch sizing), fan out on the server's
///             pool via on_request_batch / on_submission_batch
///               └─ EventLoop::post(completions) — responses are sent
///                  on the loop thread, at the simulated instant the
///                  batch was accepted
///
/// Sharding: the queue is partitioned by transport-level source address
/// with one drain thread per shard. A client's messages always land in
/// the same shard and are popped in arrival order (per-client FIFO
/// preserved); different clients drain in parallel, so a single drainer
/// is no longer the serialization point under many cores + tiny
/// batches. Because issuance is order-independent (keyed per-id
/// derivation, see server.hpp), cross-shard interleaving cannot change
/// what any client receives — over a deterministic link (no jitter, no
/// loss) whole histories stay bit-identical at any drain_shards
/// setting. (A jittered/lossy link draws from one send-ordered wire
/// Rng, which racy cross-shard completion order can permute — that
/// caveat predates sharding and applies to any concurrent poster.)
///
/// Determinism contract: run_until_idle() never advances simulated time
/// while the front end owes responses, so a run produces exactly the
/// totals of the synchronous in-process shim (same requests issued /
/// verified / rejected) — the property tests/test_async_front_end.cpp
/// pins. Backpressure is explicit: when a shard's queue is full the
/// endpoint answers kUnavailable immediately and the refusal lands in
/// ServerStats::rejected_overload, so a flooding adversary meets a
/// defined ceiling instead of unbounded buffering. In-flight accounting
/// stays exact globally: every accepted message is counted in exactly
/// one shard until its batch completes, and idle() is the conjunction
/// over shards.
///
/// Lifetime: the loop, network, queue owner (this class), and server
/// must all outlive any pending simulated events; destroy the front end
/// before the loop/network/server it references.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "framework/request_queue.hpp"
#include "framework/server.hpp"
#include "framework/watchdog.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"

namespace powai::framework {

/// Front-end knobs. All of them trade throughput against latency or
/// memory, never against correctness — totals are exact at any setting.
struct AsyncFrontEndConfig final {
  /// Global bound on decoded messages buffered ahead of the server,
  /// split exactly across the drain shards (split_slice). The
  /// backpressure point — senders beyond a shard's slice get
  /// kUnavailable. Must be >= drain_shards so every shard can buffer.
  std::size_t queue_capacity = 1024;

  /// Ceiling on one dispatched batch. Each drain pops whatever is
  /// pending in its shard up to this, so batches adapt to load: 1 under
  /// trickle traffic, max_batch under burst.
  std::size_t max_batch = 64;

  /// Drain threads, each owning one queue partition keyed by source IP
  /// (0 is treated as 1). Per-client FIFO is preserved — a client's
  /// messages always hash to the same shard — while distinct clients
  /// drain in parallel.
  std::size_t drain_shards = 1;

  /// When true the drain threads wait until start() (or the first
  /// run_until_idle()) — lets tests and staged harnesses build a
  /// deterministic backlog first.
  bool start_paused = false;

  /// Arm a stall watchdog over the drain threads: busy (non-empty
  /// queues) without any drain making progress for longer than this
  /// flags a stall (see watchdog.hpp). Zero = off. Wall-clock
  /// diagnostics only — totals and histories never depend on it.
  common::Duration watchdog_stall{0};

  /// Watchdog sampling period (only read when watchdog_stall > 0).
  common::Duration watchdog_poll = std::chrono::milliseconds(20);
};

/// Fault-injection hooks for the deterministic campaign layer
/// (sim::CampaignRunner). Every hook runs on a drain thread and may only
/// consume *wall-clock* time (sleep, spin) — the determinism contract
/// means a stalled drain changes batching shape and wall latency but
/// never totals, which is exactly the invariant stall campaigns check.
struct FrontEndFaultHooks final {
  /// Invoked before dispatching a batch: (shard, per-shard batch index).
  /// Install before start() / the first run_until_idle().
  std::function<void(std::size_t shard, std::uint64_t batch_index)>
      before_batch;

  /// Invoked before a batch's submissions hit the verifier:
  /// (shard, submissions in the batch). The slow-verify fault seam —
  /// same wall-clock-only contract as before_batch.
  std::function<void(std::size_t shard, std::size_t submissions)>
      before_verify;
};

/// Log-bucketed wall-clock queue-sojourn histogram (bench reporting).
/// Bucket i >= 1 counts sojourns in [2^(i-1), 2^i) microseconds;
/// bucket 0 holds sub-microsecond pops. Percentiles reconstruct from
/// the geometric mid of the bucket — plenty for p50/p99 tracking.
/// Wall-clock, hence nondeterministic: never part of a fingerprint.
struct SojournHistogram final {
  static constexpr std::size_t kBuckets = 40;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum_ms = 0.0;

  void record_ms(double ms);

  /// \p p in [0, 1]; 0.5 = median. Zero when empty.
  [[nodiscard]] double percentile_ms(double p) const;
  [[nodiscard]] double mean_ms() const {
    return count > 0 ? sum_ms / static_cast<double>(count) : 0.0;
  }
};

/// Counters describing how the drains actually batched (diagnostics;
/// written by drain threads under one lock — a snapshot is consistent
/// when idle).
struct FrontEndStats final {
  std::uint64_t batches = 0;      ///< dispatches to the server
  std::uint64_t messages = 0;     ///< wire messages across all batches
  std::uint64_t requests = 0;     ///< of which Request reached the server
  std::uint64_t submissions = 0;  ///< of which Submission reached the server
  /// Of messages, how many were dropped at pop time because their
  /// deadline had passed (answered kUnavailable without server work;
  /// also on the server ledger as shed_queue_*).
  std::uint64_t expired_dropped = 0;
  std::size_t largest_batch = 0;  ///< adaptive-batching high-water mark
  SojournHistogram sojourn;       ///< wall-clock queue-wait distribution
};

class AsyncFrontEnd final {
 public:
  /// Creates the shard queues (config.queue_capacity split across
  /// config.drain_shards) and one drain thread per shard. \p loop,
  /// \p network, and \p server must outlive the front end; \p host_name
  /// is the endpoint's registered host (responses are sent from it).
  /// Wire a ServerEndpoint to this front end to complete the path.
  /// Throws std::invalid_argument when queue_capacity < drain_shards.
  AsyncFrontEnd(netsim::EventLoop& loop, netsim::Network& network,
                std::string host_name, PowServer& server,
                AsyncFrontEndConfig config = {});

  /// Closes the queues and joins the drain threads. Completions already
  /// posted but not yet executed stay scheduled on the loop.
  ~AsyncFrontEnd();

  AsyncFrontEnd(const AsyncFrontEnd&) = delete;
  AsyncFrontEnd& operator=(const AsyncFrontEnd&) = delete;

  /// Routes \p message into its source's shard queue. False = that
  /// shard is at capacity (or the front end is shutting down) and the
  /// caller must answer the sender itself (overload NAK). Thread-safe;
  /// never blocks.
  [[nodiscard]] bool try_push(WireMessage message);

  /// Releases paused drain threads. Idempotent; run_until_idle() calls
  /// it implicitly.
  void start();

  /// The pump: runs the owning loop until the wire, every shard queue,
  /// and all in-flight batches are drained, then returns the number of
  /// events executed. Simulated time advances only between settled
  /// instants — while any batch is in flight the clock is frozen at the
  /// instant its messages arrived, which is what keeps async totals
  /// identical to a synchronous run. Every message the drain pops
  /// posts exactly one completion event, so the returned count is the
  /// same whatever batch sizes the drain happened to pop (max_batch,
  /// thread timing). Call from the loop thread; do not mix with a
  /// concurrent plain loop.run().
  std::size_t run_until_idle();

  /// True when the front end owes no responses (every shard queue
  /// empty, nothing in flight). Thread-safe.
  [[nodiscard]] bool idle() const;

  /// Messages queued (accepted, not yet popped), summed over shards.
  /// Thread-safe.
  [[nodiscard]] std::size_t queued() const;

  /// Messages popped but not yet completed, summed over shards.
  /// Thread-safe.
  [[nodiscard]] std::size_t in_flight() const;

  /// try_push calls refused at capacity, summed over shards.
  /// Thread-safe.
  [[nodiscard]] std::uint64_t overflows() const;

  /// Messages accepted so far, summed over shards. Thread-safe.
  [[nodiscard]] std::uint64_t accepted() const;

  /// Messages fully processed (batch completed), summed over shards.
  /// Thread-safe. When idle(), accepted() == completed() exactly — the
  /// front-end side of the conservation invariant campaigns check.
  [[nodiscard]] std::uint64_t completed() const;

  /// Installs fault hooks (campaign stall injection). Call before the
  /// drains start working — with start_paused, before start(); otherwise
  /// before the first message is pushed.
  void set_fault_hooks(FrontEndFaultHooks hooks);

  /// Actual number of drain shards (>= 1).
  [[nodiscard]] std::size_t shard_count() const { return queues_.size(); }

  /// Snapshot of the batching counters. Exact when idle(). Thread-safe.
  [[nodiscard]] FrontEndStats stats() const;

  /// Watchdog snapshot (all zeros when watchdog_stall is 0).
  /// Thread-safe.
  [[nodiscard]] WatchdogStats watchdog_stats() const;

  [[nodiscard]] const AsyncFrontEndConfig& config() const { return config_; }

 private:
  void drain_loop(std::size_t shard);
  void process_batch(RequestQueue& queue, std::vector<WireMessage>&& batch,
                     std::size_t shard);

  /// Shard index for a transport-level source address (stable across
  /// runs and platforms, so batching diagnostics are reproducible).
  [[nodiscard]] std::size_t shard_for(const std::string& from) const;

  netsim::EventLoop* loop_;
  netsim::Network* network_;
  std::string host_name_;
  PowServer* server_;
  AsyncFrontEndConfig config_;
  std::vector<std::unique_ptr<RequestQueue>> queues_;  ///< one per shard

  mutable std::mutex mu_;  ///< guards started_/stats_/hooks_ + pump/drain cv
  std::condition_variable cv_;
  bool started_;
  FrontEndStats stats_;
  FrontEndFaultHooks hooks_;

  /// Armed when config_.watchdog_stall > 0 (one source per drain
  /// shard, busy probe = !idle()). Stopped before the queues close.
  std::unique_ptr<Watchdog> watchdog_;

  std::vector<std::thread> drains_;  // last member: joins before the rest
};

}  // namespace powai::framework
