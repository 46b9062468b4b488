// Cross-backend solver equivalence: the lane-parallel nonce sweep must
// be observably identical to the scalar probe loop on every SHA-256
// backend this CPU supports. Same puzzle, start_nonce, stride, and
// max_attempts => identical (found, nonce, attempts) everywhere —
// including the lane-boundary cases (solution in the first lane, the
// last lane of a full sweep, and inside a budget-clipped partial
// sweep), where an implementation that scans lanes out of probe order
// or counts whole batches would diverge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"

namespace powai::pow {
namespace {

using crypto::Sha256;
using crypto::Sha256Backend;

Puzzle make_puzzle(unsigned difficulty, const std::string& ip = "5.6.7.8") {
  static common::ManualClock clock;
  static PuzzleGenerator gen(clock, common::bytes_of("solver-backend-secret"));
  static std::uint64_t key = 0;
  return gen.issue_for(ip, ++key, difficulty);
}

/// Runs one single-threaded scan under a forced backend, restoring the
/// previous backend afterwards.
ScanResult scan_with(Sha256Backend backend, const PuzzleContext& context,
                     std::uint64_t start, std::uint64_t stride,
                     std::uint64_t max_attempts) {
  const Sha256Backend previous = Sha256::backend();
  EXPECT_TRUE(Sha256::set_backend(backend));
  const ScanResult r = Solver::scan(context, start, stride, max_attempts);
  EXPECT_TRUE(Sha256::set_backend(previous));
  return r;
}

class SolverBackends : public ::testing::TestWithParam<Sha256Backend> {};

TEST_P(SolverBackends, ScanMatchesGenericOnSolvablePuzzles) {
  // Unbounded scans over easy puzzles: every backend must land on the
  // same nonce with the same attempt count as the scalar reference.
  for (unsigned d : {1u, 4u, 8u, 10u}) {
    const Puzzle p = make_puzzle(d);
    const PuzzleContext context(p);
    const ScanResult reference =
        scan_with(Sha256Backend::kGeneric, context, 0, 1, 0);
    ASSERT_TRUE(reference.found) << "d=" << d;
    const ScanResult r = scan_with(GetParam(), context, 0, 1, 0);
    ASSERT_TRUE(r.found) << "d=" << d;
    EXPECT_EQ(r.nonce, reference.nonce) << "d=" << d;
    EXPECT_EQ(r.attempts, reference.attempts) << "d=" << d;
  }
}

TEST_P(SolverBackends, ScanMatchesGenericOnStridedSearches)  {
  // Strides > 1 (the multithreaded sharding pattern): the sweep must
  // build its nonce batches along the stride, not contiguously.
  const Puzzle p = make_puzzle(8);
  const PuzzleContext context(p);
  for (std::uint64_t stride : {2ull, 3ull, 7ull}) {
    for (std::uint64_t start = 0; start < stride; ++start) {
      const ScanResult reference =
          scan_with(Sha256Backend::kGeneric, context, start, stride, 200'000);
      const ScanResult r =
          scan_with(GetParam(), context, start, stride, 200'000);
      EXPECT_EQ(r.found, reference.found)
          << "start=" << start << " stride=" << stride;
      EXPECT_EQ(r.nonce, reference.nonce)
          << "start=" << start << " stride=" << stride;
      EXPECT_EQ(r.attempts, reference.attempts)
          << "start=" << start << " stride=" << stride;
    }
  }
}

TEST_P(SolverBackends, ScanHitsSolutionAtEveryLaneBoundary) {
  // Place the known solution exactly k probes into the scan, for k
  // around every lane boundary of every sweep width (8 and 16): first
  // lane, last lane of a full sweep, first lane of the second sweep,
  // and mid-sweep positions. attempts must equal k + 1 exactly.
  const Puzzle p = make_puzzle(6);
  const PuzzleContext context(p);
  const ScanResult reference =
      scan_with(Sha256Backend::kGeneric, context, 0, 1, 0);
  ASSERT_TRUE(reference.found);
  const std::uint64_t solution = reference.nonce;

  for (std::uint64_t k : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 17ull,
                          31ull, 32ull}) {
    if (k > solution) continue;  // can't start before nonce 0
    const std::uint64_t start = solution - k;
    const ScanResult r = scan_with(GetParam(), context, start, 1, 0);
    ASSERT_TRUE(r.found) << "k=" << k;
    EXPECT_EQ(r.nonce, solution) << "k=" << k;
    EXPECT_EQ(r.attempts, k + 1) << "k=" << k;
  }
}

TEST_P(SolverBackends, BudgetClipsTheFinalSweepExactly) {
  // A budget that ends one probe before the solution must miss it and
  // report exactly max_attempts attempts; a budget that ends on it must
  // find it — even when the cut lands inside a lane group.
  const Puzzle p = make_puzzle(6);
  const PuzzleContext context(p);
  const ScanResult reference =
      scan_with(Sha256Backend::kGeneric, context, 0, 1, 0);
  ASSERT_TRUE(reference.found);
  const std::uint64_t solution = reference.nonce;

  for (std::uint64_t k : {0ull, 3ull, 7ull, 8ull, 12ull, 15ull, 16ull, 21ull}) {
    if (k > solution) continue;
    const std::uint64_t start = solution - k;

    const ScanResult hit = scan_with(GetParam(), context, start, 1, k + 1);
    ASSERT_TRUE(hit.found) << "k=" << k;
    EXPECT_EQ(hit.nonce, solution) << "k=" << k;
    EXPECT_EQ(hit.attempts, k + 1) << "k=" << k;

    if (k == 0) continue;
    const ScanResult miss = scan_with(GetParam(), context, start, 1, k);
    EXPECT_FALSE(miss.found) << "k=" << k;
    EXPECT_EQ(miss.attempts, k) << "k=" << k;
  }
}

TEST_P(SolverBackends, CheckManyAgreesWithSequentialCheck) {
  // check_many over a window containing the solution must return the
  // same index a scalar check loop finds, at window sizes below, at,
  // and above every lane width.
  const Puzzle p = make_puzzle(6);
  const PuzzleContext context(p);
  const ScanResult reference =
      scan_with(Sha256Backend::kGeneric, context, 0, 1, 0);
  ASSERT_TRUE(reference.found);
  const std::uint64_t solution = reference.nonce;
  const std::uint64_t start = solution >= 20 ? solution - 20 : 0;

  const Sha256Backend previous = Sha256::backend();
  ASSERT_TRUE(Sha256::set_backend(GetParam()));
  for (std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                            std::size_t{13}, std::size_t{16}, std::size_t{40},
                            std::size_t{64}}) {
    std::size_t expected = count;
    for (std::size_t i = 0; i < count; ++i) {
      if (context.check(start + i)) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(context.check_many(start, 1, count), expected)
        << "count=" << count;
  }
  ASSERT_TRUE(Sha256::set_backend(previous));
}

/// A client binding of \p len bytes: sweeping len moves the prefix
/// tail (prefix size mod 64, the bytes before the nonce in the final
/// block) through every value.
std::string binding_of_length(std::size_t len) {
  std::string binding = "10.0.0.1";
  binding.resize(len, '7');
  return binding;
}

TEST_P(SolverBackends, ScanMatchesGenericAtEveryFinalBlockShape) {
  // Tails 0-47 finish in one block, 48-56 in two with the nonce in the
  // first, 57-63 in two with the nonce straddling the boundary. Every
  // shape must give the scalar reference's (found, nonce, attempts),
  // unbounded and on a strided, budget-clipped scan.
  std::vector<bool> tail_seen(64, false);
  for (std::size_t len = 0; len < 64; ++len) {
    const Puzzle p = make_puzzle(8, binding_of_length(len));
    const PuzzleContext context(p);
    tail_seen[context.prefix().size() % 64] = true;

    const ScanResult reference =
        scan_with(Sha256Backend::kGeneric, context, 0, 1, 0);
    ASSERT_TRUE(reference.found) << "len=" << len;
    const ScanResult r = scan_with(GetParam(), context, 0, 1, 0);
    EXPECT_EQ(r.found, reference.found) << "len=" << len;
    EXPECT_EQ(r.nonce, reference.nonce) << "len=" << len;
    EXPECT_EQ(r.attempts, reference.attempts) << "len=" << len;

    const ScanResult clipped_reference =
        scan_with(Sha256Backend::kGeneric, context, 1, 3, 301);
    const ScanResult clipped = scan_with(GetParam(), context, 1, 3, 301);
    EXPECT_EQ(clipped.found, clipped_reference.found) << "len=" << len;
    EXPECT_EQ(clipped.nonce, clipped_reference.nonce) << "len=" << len;
    EXPECT_EQ(clipped.attempts, clipped_reference.attempts) << "len=" << len;
  }
  EXPECT_EQ(std::count(tail_seen.begin(), tail_seen.end(), true), 64);
}

TEST_P(SolverBackends, DigestMatchesOneShotHashAtEveryFinalBlockShape) {
  // digest_for (the verifier's path) and check fill the same pre-padded
  // final block(s) as the sweep; both must agree with hashing
  // prefix || nonce_be64 from scratch at every tail length.
  const Sha256Backend previous = Sha256::backend();
  ASSERT_TRUE(Sha256::set_backend(GetParam()));
  for (std::size_t len = 0; len < 64; ++len) {
    const Puzzle p = make_puzzle(2, binding_of_length(len));
    const PuzzleContext context(p);
    for (std::uint64_t nonce :
         {0ull, 1ull, 0x0123456789abcdefull, ~0ull}) {
      common::Bytes message = p.prefix_bytes();
      common::append_u64be(message, nonce);
      const crypto::Digest expected = Sha256::hash(message);
      EXPECT_EQ(context.digest_for(nonce), expected)
          << "len=" << len << " nonce=" << nonce;
      EXPECT_EQ(context.check(nonce),
                crypto::meets_difficulty(expected, p.difficulty))
          << "len=" << len << " nonce=" << nonce;
    }
  }
  ASSERT_TRUE(Sha256::set_backend(previous));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SolverBackends,
    ::testing::ValuesIn(Sha256::supported_backends()),
    [](const ::testing::TestParamInfo<Sha256Backend>& info) {
      return std::string(Sha256::backend_name(info.param));
    });

}  // namespace
}  // namespace powai::pow
