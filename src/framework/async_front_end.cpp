#include "framework/async_front_end.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <variant>

#include "common/hashing.hpp"
#include "common/thread_pool.hpp"

namespace powai::framework {

namespace {
/// FNV-1a over the address string: a stable, platform-independent hash
/// so shard assignment (and therefore batch diagnostics) reproduce
/// across runs. std::hash would work but is unspecified per platform.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

void SojournHistogram::record_ms(double ms) {
  ++count;
  sum_ms += ms;
  const double us = ms * 1000.0;
  std::size_t idx = 0;
  if (us >= 1.0) {
    const auto us_int = static_cast<std::uint64_t>(us);
    idx = std::min<std::size_t>(kBuckets - 1, std::bit_width(us_int));
  }
  ++buckets[idx];
}

double SojournHistogram::percentile_ms(double p) const {
  if (count == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank =
      static_cast<std::uint64_t>(clamped * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) {
      if (i == 0) return 0.0005;  // sub-microsecond bucket midpoint
      // Bucket i covers [2^(i-1), 2^i) µs; report the geometric mid.
      const double lo_us = std::ldexp(1.0, static_cast<int>(i) - 1);
      return lo_us * 1.41421356237 / 1000.0;
    }
  }
  return 0.0;  // unreachable: counts sum to `count`
}

AsyncFrontEnd::AsyncFrontEnd(netsim::EventLoop& loop, netsim::Network& network,
                             std::string host_name, PowServer& server,
                             AsyncFrontEndConfig config)
    : loop_(&loop),
      network_(&network),
      host_name_(std::move(host_name)),
      server_(&server),
      config_(config),
      started_(!config.start_paused) {
  const std::size_t shards = std::max<std::size_t>(1, config_.drain_shards);
  if (config_.queue_capacity < shards) {
    throw std::invalid_argument(
        "AsyncFrontEnd: queue_capacity must be >= drain_shards");
  }
  queues_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Exact split: shard capacities sum to queue_capacity, so the
    // global backpressure bound is unchanged by sharding.
    queues_.push_back(std::make_unique<RequestQueue>(
        common::split_slice(config_.queue_capacity, shards, i)));
  }
  if (config_.watchdog_stall > common::Duration::zero()) {
    watchdog_ = std::make_unique<Watchdog>(
        WatchdogConfig{config_.watchdog_stall, config_.watchdog_poll});
    for (std::size_t i = 0; i < shards; ++i) {
      (void)watchdog_->register_source("drain-" + std::to_string(i));
    }
    watchdog_->set_busy_probe([this] { return !idle(); });
    watchdog_->start();
  }
  drains_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    drains_.emplace_back([this, i] { drain_loop(i); });
    if (config_.pin_drains) {
      // Best-effort (see ThreadPool::pin_to_cpu): an unpinnable drain
      // just floats, it never fails construction.
      (void)common::ThreadPool::pin_to_cpu(drains_.back(), i);
    }
  }
}

AsyncFrontEnd::~AsyncFrontEnd() {
  // Stop the watchdog first: its busy probe reads the queues.
  if (watchdog_) watchdog_->stop();
  for (auto& queue : queues_) queue->close();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    started_ = true;  // paused drains must wake to observe the close
  }
  cv_.notify_all();
  for (auto& drain : drains_) drain.join();
}

std::size_t AsyncFrontEnd::shard_for(const std::string& from) const {
  return static_cast<std::size_t>(common::mix64(fnv1a64(from))) %
         queues_.size();
}

bool AsyncFrontEnd::try_push(WireMessage message) {
  const std::size_t shard = shard_for(message.from);
  return queues_[shard]->try_push(std::move(message));
}

void AsyncFrontEnd::start() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  cv_.notify_all();
}

bool AsyncFrontEnd::idle() const {
  for (const auto& queue : queues_) {
    if (queue->busy()) return false;
  }
  return true;
}

std::size_t AsyncFrontEnd::queued() const {
  std::size_t total = 0;
  for (const auto& queue : queues_) total += queue->size();
  return total;
}

std::size_t AsyncFrontEnd::in_flight() const {
  std::size_t total = 0;
  for (const auto& queue : queues_) total += queue->in_flight();
  return total;
}

std::uint64_t AsyncFrontEnd::overflows() const {
  std::uint64_t total = 0;
  for (const auto& queue : queues_) total += queue->overflows();
  return total;
}

std::uint64_t AsyncFrontEnd::accepted() const {
  std::uint64_t total = 0;
  for (const auto& queue : queues_) total += queue->accepted();
  return total;
}

std::uint64_t AsyncFrontEnd::completed() const {
  std::uint64_t total = 0;
  for (const auto& queue : queues_) total += queue->completed();
  return total;
}

void AsyncFrontEnd::set_fault_hooks(FrontEndFaultHooks hooks) {
  const std::lock_guard<std::mutex> lock(mu_);
  hooks_ = std::move(hooks);
}

FrontEndStats AsyncFrontEnd::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

WatchdogStats AsyncFrontEnd::watchdog_stats() const {
  return watchdog_ ? watchdog_->stats() : WatchdogStats{};
}

void AsyncFrontEnd::drain_loop(std::size_t shard) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return started_; });
  }
  RequestQueue& queue = *queues_[shard];
  std::vector<WireMessage> batch;
  for (std::uint64_t batch_index = 0;; ++batch_index) {
    batch.clear();
    if (queue.pop_up_to(config_.max_batch, batch) == 0) return;  // closed
    if (watchdog_) watchdog_->beat(shard);
    {
      // Copy the hook out so a stall does not hold the stats lock.
      std::function<void(std::size_t, std::uint64_t)> before;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        before = hooks_.before_batch;
      }
      if (before) before(shard, batch_index);
    }
    process_batch(queue, std::move(batch), shard);
    if (watchdog_) watchdog_->beat(shard);
  }
}

void AsyncFrontEnd::process_batch(RequestQueue& queue,
                                  std::vector<WireMessage>&& batch,
                                  std::size_t shard) {
  const std::size_t n = batch.size();
  // Pop-time overload control: measure each message's queue sojourn
  // (sim-time for the ladder signal, wall-time for the bench
  // percentiles) and shed entries whose deadline already passed — they
  // are answered kUnavailable right here, without any server work.
  const std::int64_t pop_ms = server_->now_ms();
  const auto wall_now = std::chrono::steady_clock::now();
  std::vector<double> wall_sojourns_ms;
  wall_sojourns_ms.reserve(n);
  std::size_t expired_dropped = 0;

  // Partition while remembering each message's slot so responses go out
  // in arrival order regardless of how the two batch calls interleave.
  std::vector<Request> requests;
  std::vector<std::size_t> request_slots;
  std::vector<Submission> submissions;
  std::vector<std::string> observed_ips;
  std::vector<std::size_t> submission_slots;
  std::vector<std::pair<std::string, common::Bytes>> outgoing(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (batch[i].enqueued_at != common::TimePoint{}) {
      server_->note_queue_sojourn(
          pop_ms, static_cast<double>(
                      pop_ms - common::to_millis(batch[i].enqueued_at)));
    }
    if (batch[i].wall_enqueued_at !=
        std::chrono::steady_clock::time_point{}) {
      wall_sojourns_ms.push_back(
          std::chrono::duration<double, std::milli>(
              wall_now - batch[i].wall_enqueued_at)
              .count());
    }
    const bool is_request = std::holds_alternative<Request>(batch[i].payload);
    // Shed only entries whose deadline passed *while queued*: a message
    // that arrived already expired still flows to the server, which
    // sheds it itself (shed_deadline_*) — exactly what the synchronous
    // path does, so async and sync ledgers stay bit-identical. Under
    // the frozen-clock simulator pop == push instant and this branch is
    // structurally unreachable; it exists for wall-clock deployments
    // (and is unit-tested with hand-stamped envelopes).
    if (batch[i].deadline_ms != 0 && pop_ms > batch[i].deadline_ms &&
        batch[i].deadline_ms >= common::to_millis(batch[i].enqueued_at)) {
      server_->note_queue_shed(is_request);
      ++expired_dropped;
      Response nak;
      nak.request_id =
          is_request ? std::get<Request>(batch[i].payload).request_id
                     : std::get<Submission>(batch[i].payload).request_id;
      nak.status = common::ErrorCode::kUnavailable;
      nak.body = "deadline expired in queue";
      nak.retry_after_ms = server_->retry_after_hint_ms();
      outgoing[i] = {batch[i].from, nak.serialize()};
      continue;
    }
    if (auto* request = std::get_if<Request>(&batch[i].payload)) {
      request_slots.push_back(i);
      requests.push_back(std::move(*request));
    } else {
      auto& submission = std::get<Submission>(batch[i].payload);
      submission_slots.push_back(i);
      observed_ips.push_back(batch[i].from);
      submissions.push_back(std::move(submission));
    }
  }

  // Fan out on the server's shared pool (this thread participates via
  // parallel_for), then serialize every reply into its arrival slot.
  // Shards share that one pool, so drain_shards scales dispatch without
  // multiplying worker threads.
  if (!requests.empty()) {
    auto outcomes = server_->on_request_batch(requests);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const std::size_t slot = request_slots[i];
      if (const auto* challenge = std::get_if<Challenge>(&outcomes[i])) {
        outgoing[slot] = {batch[slot].from, challenge->serialize()};
      } else {
        outgoing[slot] = {batch[slot].from,
                          std::get<Response>(outcomes[i]).serialize()};
      }
    }
  }
  if (!submissions.empty()) {
    {
      // Slow-verify fault seam; copy the hook out so a stall does not
      // hold the stats lock.
      std::function<void(std::size_t, std::size_t)> before;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        before = hooks_.before_verify;
      }
      if (before) before(shard, submissions.size());
    }
    auto responses = server_->on_submission_batch(submissions, observed_ips);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const std::size_t slot = submission_slots[i];
      outgoing[slot] = {batch[slot].from, responses[i].serialize()};
    }
  }

  // Route completions back onto the loop: sends happen on the loop
  // thread at the simulated instant the batch was accepted, so link
  // modelling and wire determinism are untouched by pool threads. One
  // posted event per message, in arrival order, so the loop's event
  // count does not depend on how the drain happened to cut batches.
  for (auto& [to, payload] : outgoing) {
    loop_->post([network = network_, host = host_name_, to = std::move(to),
                 payload = std::move(payload)]() mutable {
      (void)network->send(host, to, std::move(payload));
    });
  }
  queue.complete(n);

  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.messages += n;
    stats_.requests += request_slots.size();
    stats_.submissions += submission_slots.size();
    stats_.expired_dropped += expired_dropped;
    stats_.largest_batch = std::max(stats_.largest_batch, n);
    for (const double ms : wall_sojourns_ms) stats_.sojourn.record_ms(ms);
  }
  cv_.notify_all();
}

std::size_t AsyncFrontEnd::run_until_idle() {
  start();
  std::size_t executed = 0;
  for (;;) {
    // Settle the current instant: keep executing due events (including
    // posted completions) and waiting on the drains until no shard owes
    // anything for this timestamp. The clock does not move here. The
    // loop thread is the only producer, so queues can only go busy →
    // idle while it waits — the conjunction over shards is race-free.
    for (;;) {
      executed += loop_->run_until(loop_->now());
      std::unique_lock<std::mutex> lock(mu_);
      if (idle() && !loop_->has_posted()) break;
      cv_.wait(lock, [this] { return loop_->has_posted() || idle(); });
    }
    // Everything at this instant is settled; hop to the next one.
    const auto next = loop_->next_event_time();
    if (!next) return executed;
    executed += loop_->run_until(*next);
  }
}

}  // namespace powai::framework
