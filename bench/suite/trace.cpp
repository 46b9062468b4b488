#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/json.hpp"

namespace powai::bench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

struct CachedTrace {
  std::uint64_t generation = 0;
  ThreadTrace* trace = nullptr;
};
thread_local CachedTrace t_cached;

/// splitmix64 finalizer: spreads request keys so `% sample_every` picks
/// an unbiased, thread-independent subset.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double ns_per_tick() {
#if defined(__x86_64__) || defined(__i386__)
  static const double value = [] {
    using Clock = std::chrono::steady_clock;
    const auto wall0 = Clock::now();
    const std::uint64_t tick0 = ticks();
    auto wall1 = wall0;
    while (wall1 - wall0 < std::chrono::milliseconds(20)) wall1 = Clock::now();
    const std::uint64_t tick1 = ticks();
    return std::chrono::duration<double, std::nano>(wall1 - wall0).count() /
           static_cast<double>(tick1 - tick0);
  }();
  return value;
#else
  return 1.0;
#endif
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kExchange: return "exchange";
    case Layer::kEncode: return "protocol.encode";
    case Layer::kDecode: return "protocol.decode";
    case Layer::kOnRequest: return "server.on_request";
    case Layer::kOnRequestLimited: return "server.on_request.limited";
    case Layer::kOnRequestOther: return "server.on_request.other";
    case Layer::kOnSubmissionServed: return "server.on_submission.served";
    case Layer::kOnSubmissionBadSolution:
      return "server.on_submission.bad_solution";
    case Layer::kOnSubmissionReplay: return "server.on_submission.replay";
    case Layer::kOnSubmissionOther: return "server.on_submission.other";
    case Layer::kSolve: return "pow.solve";
    case Layer::kScore: return "reputation.score";
    case Layer::kPolicy: return "policy.difficulty";
    case Layer::kCount: break;
  }
  return "?";
}

void ThreadTrace::begin_request(std::uint64_t key) {
  key_ = key;
  sampled_ = mix(key) % sample_every_ == 0;
}

void ThreadTrace::overflow() { throw std::logic_error("span stack overflow"); }

void ThreadTrace::record(Layer layer, std::uint64_t start, std::uint64_t end) {
  const Layer parent = depth_ > 0 ? stack_[depth_ - 1].layer : Layer::kCount;
  samples_.push_back({key_, layer, parent, start, end});
}

Tracer::Tracer(std::uint64_t sample_every)
    : sample_every_(sample_every == 0 ? 1 : sample_every),
      generation_(++g_generation) {}

ThreadTrace& Tracer::local() {
  if (t_cached.generation == generation_) return *t_cached.trace;
  const std::lock_guard lock(mu_);
  ThreadTrace& trace = threads_.emplace_back(sample_every_);
  t_cached = {generation_, &trace};
  return trace;
}

Totals Tracer::totals() const {
  const std::lock_guard lock(mu_);
  Totals sum{};
  for (const ThreadTrace& thread : threads_) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      sum[i].count += thread.totals()[i].count;
      sum[i].self_ticks += thread.totals()[i].self_ticks;
    }
  }
  return sum;
}

bool Tracer::append_jsonl(const std::string& path,
                          const std::string& workload) const {
  const std::lock_guard lock(mu_);
  std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
  for (const ThreadTrace& thread : threads_) {
    for (const SpanRecord& s : thread.samples()) {
      origin = std::min(origin, s.start);
    }
  }
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) return false;
  bool ok = true;
  for (const ThreadTrace& thread : threads_) {
    for (const SpanRecord& s : thread.samples()) {
      char key[24];
      std::snprintf(key, sizeof key, "%016llx",
                    static_cast<unsigned long long>(s.key));
      common::JsonWriter w;
      w.begin_object();
      w.field_str("workload", workload);
      w.field_str("request", key);
      w.field_str("span", layer_name(s.layer));
      w.field_str("parent",
                  s.parent == Layer::kCount ? "" : layer_name(s.parent));
      w.field_f64("start_ns", ticks_to_ns(s.start - origin));
      w.field_f64("end_ns", ticks_to_ns(s.end - origin));
      w.end_object();
      ok = ok && std::fprintf(out, "%s\n", w.str().c_str()) > 0;
    }
  }
  return std::fclose(out) == 0 && ok;
}

void TimedModel::fit(const features::Dataset&) {
  throw std::logic_error("TimedModel: fit the wrapped model instead");
}

double TimedModel::score(const features::FeatureVector& x) const {
  ThreadTrace& trace = tracer_->local();
  trace.open(Layer::kScore, ticks());
  const double score = inner_->score(x);
  trace.close(ticks());
  return score;
}

policy::Difficulty TimedPolicy::difficulty(double score,
                                           common::Rng& rng) const {
  ThreadTrace& trace = tracer_->local();
  trace.open(Layer::kPolicy, ticks());
  const policy::Difficulty d = inner_->difficulty(score, rng);
  trace.close(ticks());
  return d;
}

}  // namespace powai::bench
