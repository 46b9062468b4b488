#pragma once
/// \file trace.hpp
/// Span tracing for powai_bench, recorded from the benchmark's own code
/// around each call into a library layer (the library itself is not
/// instrumented). A span has a layer name, start, end, and parent; the
/// spans of one request share a key. Self time is a span's duration
/// minus the part its child spans cover.
///
/// Every span is folded into per-thread, per-layer totals (count and self
/// ticks), so aggregates cover every request. Full spans are
/// kept only for a deterministic 1-in-`sample_every` subset of requests,
/// chosen by a hash of the request key, so the same requests are sampled
/// at any thread count.
///
/// Threads register lazily: the first span a thread opens under a tracer
/// gives it its own buffer, so the decorators below also trace calls made
/// on the library's own worker threads (where they form root spans).
/// Buffers are read only after the traced pass has joined every thread.

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "policy/policy.hpp"
#include "reputation/model.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace powai::bench {

/// Cheap monotonic tick counter: the TSC on x86 (about half the cost of a
/// steady_clock read), steady_clock nanoseconds elsewhere. Convert with
/// ticks_to_ns().
[[nodiscard]] inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Nanoseconds per tick, calibrated once against steady_clock over 20 ms
/// on the first call (make it before any timed work).
[[nodiscard]] double ns_per_tick();

[[nodiscard]] inline double ticks_to_ns(std::uint64_t t) {
  return static_cast<double>(t) * ns_per_tick();
}

/// Layer boundaries a span can name. Submission and request spans are
/// renamed by outcome when they close (close_as), so each outcome path
/// gets its own cost.
enum class Layer : std::uint8_t {
  kExchange,  ///< root: one closed_mix exchange or one flood message
  kEncode,
  kDecode,
  kOnRequest,         ///< issued a challenge
  kOnRequestLimited,  ///< refused by the rate limiter
  kOnRequestOther,    ///< any other response
  kOnSubmissionServed,
  kOnSubmissionBadSolution,
  kOnSubmissionReplay,
  kOnSubmissionOther,
  kSolve,
  kScore,   ///< IReputationModel::score (reputation-cache misses only)
  kPolicy,  ///< IPolicy::difficulty
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

struct LayerTotals {
  std::uint64_t count = 0;
  std::uint64_t self_ticks = 0;
};

using Totals = std::array<LayerTotals, kLayerCount>;

/// One sampled span, in ticks.
struct SpanRecord {
  std::uint64_t key = 0;
  Layer layer = Layer::kExchange;
  Layer parent = Layer::kCount;  ///< kCount = root
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// One thread's open-span stack, totals and samples.
class ThreadTrace final {
 public:
  explicit ThreadTrace(std::uint64_t sample_every)
      : sample_every_(sample_every) {}

  /// Starts a new request: later spans carry \p key, and are kept in full
  /// when the key falls in the sample.
  void begin_request(std::uint64_t key);

  // open/close are inline: they run several times per flood message.
  void open(Layer layer, std::uint64_t at) {
    if (depth_ == kMaxDepth) overflow();
    stack_[depth_++] = Open{layer, at, 0};
  }
  /// Closes the innermost open span.
  void close(std::uint64_t at) { close_as(stack_[depth_ - 1].layer, at); }
  /// Closes the innermost open span under \p layer (its outcome).
  void close_as(Layer layer, std::uint64_t at) {
    const Open span = stack_[--depth_];
    const std::uint64_t duration = at - span.start;
    LayerTotals& t = totals_[static_cast<std::size_t>(layer)];
    ++t.count;
    t.self_ticks += duration - (span.child < duration ? span.child : duration);
    if (depth_ > 0) stack_[depth_ - 1].child += duration;
    if (sampled_) record(layer, span.start, at);
  }

  [[nodiscard]] const Totals& totals() const { return totals_; }
  [[nodiscard]] const std::vector<SpanRecord>& samples() const {
    return samples_;
  }

 private:
  struct Open {
    Layer layer = Layer::kExchange;
    std::uint64_t start = 0;
    std::uint64_t child = 0;
  };
  static constexpr int kMaxDepth = 8;

  [[noreturn]] static void overflow();
  void record(Layer layer, std::uint64_t start, std::uint64_t end);

  std::uint64_t sample_every_;
  std::uint64_t key_ = 0;
  bool sampled_ = false;
  int depth_ = 0;
  std::array<Open, kMaxDepth> stack_{};
  Totals totals_{};
  std::vector<SpanRecord> samples_;
};

/// Consecutive spans under one open parent, sharing each boundary: a
/// close reads the clock once and the next span opens at that reading.
/// With a null trace every call is a no-op.
struct SpanClock {
  ThreadTrace* trace = nullptr;
  std::uint64_t last = 0;  ///< the latest boundary tick

  void open(Layer layer) {
    if (trace != nullptr) trace->open(layer, last);
  }
  void close_as(Layer layer) {
    if (trace != nullptr) {
      last = ticks();
      trace->close_as(layer, last);
    }
  }
};

class Tracer final {
 public:
  explicit Tracer(std::uint64_t sample_every = 64);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's buffer, created on first use.
  ThreadTrace& local();

  /// Totals merged over every thread (call once all threads are joined).
  [[nodiscard]] Totals totals() const;

  /// Appends the sampled spans as JSON lines tagged with \p workload.
  /// Returns false on an I/O error.
  [[nodiscard]] bool append_jsonl(const std::string& path,
                                  const std::string& workload) const;

 private:
  std::uint64_t sample_every_;
  std::uint64_t generation_;  ///< tells this tracer's buffers from a
                              ///< previous tracer at the same address
  mutable std::mutex mu_;     ///< guards threads_
  std::deque<ThreadTrace> threads_;
};

/// Times IReputationModel::score as a kScore span. The wrapped model must
/// already be fitted and outlive the decorator.
class TimedModel final : public reputation::IReputationModel {
 public:
  TimedModel(const reputation::IReputationModel& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  /// Throws std::logic_error: fit the wrapped model instead.
  void fit(const features::Dataset& data) override;
  [[nodiscard]] bool fitted() const override { return inner_->fitted(); }
  [[nodiscard]] double score(const features::FeatureVector& x) const override;
  [[nodiscard]] double error_epsilon() const override {
    return inner_->error_epsilon();
  }

 private:
  const reputation::IReputationModel* inner_;
  Tracer* tracer_;
};

/// Times IPolicy::difficulty as a kPolicy span.
class TimedPolicy final : public policy::IPolicy {
 public:
  TimedPolicy(const policy::IPolicy& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] policy::Difficulty difficulty(double score,
                                              common::Rng& rng) const override;
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

 private:
  const policy::IPolicy* inner_;
  Tracer* tracer_;
};

/// The model and policy a pass hands its server: wrapped in the timing
/// decorators when \p tracer is set, the plain ones otherwise. The
/// server keeps references into this object, so it does not move.
class Instrumented final {
 public:
  Instrumented(const reputation::IReputationModel& model,
               const policy::IPolicy& policy, Tracer* tracer)
      : model_(&model), policy_(&policy) {
    if (tracer != nullptr) {
      timed_model_.emplace(model, *tracer);
      timed_policy_.emplace(policy, *tracer);
    }
  }
  Instrumented(const Instrumented&) = delete;
  Instrumented& operator=(const Instrumented&) = delete;

  [[nodiscard]] const reputation::IReputationModel& model() const {
    return timed_model_ ? *timed_model_ : *model_;
  }
  [[nodiscard]] const policy::IPolicy& policy() const {
    return timed_policy_ ? *timed_policy_ : *policy_;
  }

 private:
  const reputation::IReputationModel* model_;
  const policy::IPolicy* policy_;
  std::optional<TimedModel> timed_model_;
  std::optional<TimedPolicy> timed_policy_;
};

}  // namespace powai::bench
