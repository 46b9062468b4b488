// ABL-HASH — substrate microbenchmarks (google-benchmark): SHA-256,
// HMAC-SHA256, SipHash-2-4, HMAC-DRBG, plus the hot-path forms this
// system actually runs (midstate finish_with_suffix, hash_many lanes,
// the solver's PuzzleContext::check_many).
// The SHA-256 64-byte number is the "per-hash cost" that calibrates the
// latency model's hash_cost_us on a given machine (solver inputs are
// one or two compression blocks).
//
// A trailing `json=path` argument (stripped before google-benchmark
// sees the flags) additionally runs a hand-timed hashes/sec sweep over
// every supported dispatch backend and writes a JSON artifact for
// comparing backends by hand: rows keyed by "case" ("<mode>/<backend>")
// with a "hashes_per_s" metric. "solver_scalar/generic" is the pre-midstate
// per-attempt cost; "solver_midstate/<backend>" is the single-probe
// midstate finish; "solver_sweep/<backend>" is the lane-parallel
// finish_many_with_suffix sweep (the solver's lane kernel plus digest
// serialization) — sweep/midstate is the lane speedup on
// avx2/avx512/shani.

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"
#include "pow/puzzle.hpp"

namespace {

using namespace powai;

common::Bytes make_input(std::size_t n) {
  common::Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  return data;
}

void BM_Sha256(benchmark::State& state) {
  const common::Bytes data = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192);

void BM_Sha256SolverShape(benchmark::State& state) {
  // The solver's pre-midstate call pattern: fixed ~100-byte prefix +
  // 8-byte nonce, fully re-hashed per attempt.
  const common::Bytes prefix = make_input(100);
  common::Bytes nonce(8, 0);
  std::uint64_t n = 0;
  for (auto _ : state) {
    ++n;
    nonce[0] = static_cast<std::uint8_t>(n);
    benchmark::DoNotOptimize(crypto::Sha256::hash2(prefix, nonce));
  }
}
BENCHMARK(BM_Sha256SolverShape);

void BM_Sha256MidstateSolverShape(benchmark::State& state) {
  // The solver's current call pattern: the prefix's full blocks are
  // absorbed once, each attempt compresses only the final block.
  const common::Bytes prefix = make_input(100);
  const crypto::Sha256Midstate midstate = crypto::Sha256::precompute(prefix);
  const common::BytesView tail(
      prefix.data() + midstate.absorbed,
      prefix.size() - static_cast<std::size_t>(midstate.absorbed));
  std::uint8_t nonce[8] = {};
  std::uint64_t n = 0;
  for (auto _ : state) {
    common::store_u64be(nonce, ++n);
    benchmark::DoNotOptimize(crypto::Sha256::finish_with_suffix(
        midstate, tail, common::BytesView(nonce, 8)));
  }
}
BENCHMARK(BM_Sha256MidstateSolverShape);

void BM_Sha256HashMany(benchmark::State& state) {
  // BatchVerifier's shape: a batch of equal-length (prefix || nonce)
  // messages digested in one sweep.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<common::Bytes> messages;
  messages.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    common::Bytes m = make_input(100);
    common::append_u64be(m, i);
    messages.push_back(std::move(m));
  }
  std::vector<common::BytesView> views(messages.begin(), messages.end());
  std::vector<crypto::Digest> out(batch);
  for (auto _ : state) {
    crypto::Sha256::hash_many(views, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_Sha256HashMany)->Arg(8)->Arg(64)->Arg(256);

void BM_Sha256FinishManySolverShape(benchmark::State& state) {
  // The lane-sweep solver's shape: one shared midstate, a batch of
  // 8-byte nonce suffixes finished lane_width() at a time (16 on
  // AVX-512, 8 on AVX2, 2 interleaved streams on SHA-NI), plus the
  // digest serialization the solver itself skips.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const common::Bytes prefix = make_input(100);
  const crypto::Sha256Midstate midstate = crypto::Sha256::precompute(prefix);
  const common::BytesView tail(
      prefix.data() + midstate.absorbed,
      prefix.size() - static_cast<std::size_t>(midstate.absorbed));
  std::vector<std::array<std::uint8_t, 8>> nonces(batch);
  std::vector<common::BytesView> suffixes;
  suffixes.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    common::store_u64be(nonces[i].data(), i);
    suffixes.emplace_back(nonces[i].data(), nonces[i].size());
  }
  std::vector<crypto::Digest> out(batch);
  for (auto _ : state) {
    crypto::Sha256::finish_many_with_suffix(midstate, tail, suffixes, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_Sha256FinishManySolverShape)->Arg(16)->Arg(256);

void BM_PuzzleContextCheckMany(benchmark::State& state) {
  // The solver's own probe path: one pre-padded final-block template
  // per puzzle, one lane sweep per call, the nonce stored into each
  // lane and the difficulty tested on the chaining words. The puzzle's
  // 40-bit difficulty is never met, so every call probes the full batch.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  pow::Puzzle puzzle;
  puzzle.seed = make_input(32);
  puzzle.issued_at_ms = 1'700'000'000'000;
  puzzle.difficulty = 40;
  puzzle.client_binding = "198.51.100.1";
  const pow::PuzzleContext context(puzzle);
  std::uint64_t start = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.check_many(start, 1, batch));
    start += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PuzzleContextCheckMany)->Arg(16)->Arg(256);

void BM_HmacSha256(benchmark::State& state) {
  const common::Bytes key = common::bytes_of("bench-key");
  const common::Bytes data = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

// The issuer's and verifier's form: the key absorbed once, each MAC
// compressing only the message and one outer block.
void BM_HmacSha256CachedKey(benchmark::State& state) {
  const crypto::HmacKey key(common::bytes_of("bench-key"));
  const common::Bytes data = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256CachedKey)->Arg(64)->Arg(1024);

void BM_SipHash24(benchmark::State& state) {
  crypto::SipKey key{};
  for (std::uint8_t i = 0; i < 16; ++i) key[i] = i;
  const common::Bytes data = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::siphash24(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SipHash24)->Arg(16)->Arg(64)->Arg(1024);

// One per-id draw: the population build's next_u64 (8) and a puzzle
// seed (32), each a full instantiate + generate.
void BM_DerivedDrbgGenerate(benchmark::State& state) {
  const crypto::DerivedDrbg family(common::bytes_of("bench-entropy"),
                                   common::bytes_of("powai-seed-drbg"));
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        family.generate(id++, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_DerivedDrbgGenerate)->Arg(8)->Arg(32);

// ---------------------------------------------------------------------------
// json= artifact: hashes/sec per (mode, backend), hand-timed so the
// numbers need no parsing of google-benchmark's output format.
// ---------------------------------------------------------------------------

struct HashrateRow {
  std::string case_name;  // "<mode>/<backend>"
  double hashes_per_s = 0.0;
};

template <typename Fn>
double hashes_per_second(Fn&& attempt) {
  // Calibrate a ~100 ms run, then time it.
  using clock = std::chrono::steady_clock;
  std::uint64_t iters = 2048;
  for (;;) {
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) attempt(i);
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= 0.1 || iters >= (1ULL << 26)) {
      return static_cast<double>(iters) / s;
    }
    iters *= 4;
  }
}

int write_hashrate_json(const std::string& json_path) {
  const common::Bytes prefix = make_input(100);
  const crypto::Sha256Midstate midstate = crypto::Sha256::precompute(prefix);
  const common::BytesView tail(
      prefix.data() + midstate.absorbed,
      prefix.size() - static_cast<std::size_t>(midstate.absorbed));

  constexpr std::size_t kBatch = 256;
  std::vector<common::Bytes> messages;
  messages.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    common::Bytes m = prefix;
    common::append_u64be(m, i);
    messages.push_back(std::move(m));
  }
  std::vector<common::BytesView> views(messages.begin(), messages.end());
  std::vector<crypto::Digest> digests(kBatch);

  std::vector<std::array<std::uint8_t, 8>> nonces(kBatch);
  std::vector<common::BytesView> suffixes;
  suffixes.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    common::store_u64be(nonces[i].data(), i);
    suffixes.emplace_back(nonces[i].data(), nonces[i].size());
  }

  const crypto::Sha256Backend previous = crypto::Sha256::backend();
  std::vector<HashrateRow> rows;
  for (crypto::Sha256Backend b : crypto::Sha256::supported_backends()) {
    if (!crypto::Sha256::set_backend(b)) continue;
    const std::string backend(crypto::Sha256::backend_name(b));
    common::Bytes nonce_vec(8, 0);
    rows.push_back(
        {"solver_scalar/" + backend, hashes_per_second([&](std::uint64_t i) {
           common::store_u64be(nonce_vec.data(), i);
           benchmark::DoNotOptimize(
               crypto::Sha256::hash2(prefix, nonce_vec));
         })});
    std::uint8_t nonce[8];
    rows.push_back(
        {"solver_midstate/" + backend, hashes_per_second([&](std::uint64_t i) {
           common::store_u64be(nonce, i);
           benchmark::DoNotOptimize(crypto::Sha256::finish_with_suffix(
               midstate, tail, common::BytesView(nonce, 8)));
         })});
    const double sweeps = hashes_per_second([&](std::uint64_t) {
      crypto::Sha256::hash_many(views, digests);
      benchmark::DoNotOptimize(digests.data());
    });
    rows.push_back(
        {"hash_many_256/" + backend, sweeps * static_cast<double>(kBatch)});
    const double finish_sweeps = hashes_per_second([&](std::uint64_t) {
      crypto::Sha256::finish_many_with_suffix(midstate, tail, suffixes,
                                              digests);
      benchmark::DoNotOptimize(digests.data());
    });
    rows.push_back({"solver_sweep/" + backend,
                    finish_sweeps * static_cast<double>(kBatch)});
  }
  crypto::Sha256::set_backend(previous);

  std::printf("\nhashes/sec by case (json artifact):\n");
  for (const HashrateRow& row : rows) {
    std::printf("  %-28s %14.0f\n", row.case_name.c_str(), row.hashes_per_s);
  }

  common::JsonWriter w;
  w.begin_object();
  w.field_str("bench", "crypto");
  w.field_str("default_backend", std::string(crypto::Sha256::backend_name(
                                     crypto::Sha256::backend())));
  w.begin_array("rows");
  for (const HashrateRow& row : rows) {
    w.begin_object();
    w.field_str("case", row.case_name);
    w.field_f64("hashes_per_s", row.hashes_per_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  if (!common::write_json_file(json_path, w)) {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("json written: %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our json=path knob before google-benchmark parses flags.
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "json=", 5) == 0) {
      json_path = argv[i] + 5;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!json_path.empty()) return write_hashrate_json(json_path);
  return 0;
}
