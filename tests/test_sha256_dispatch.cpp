// Cross-checks for the SHA-256 hot-path API against the plain streaming
// interface, run with every compression backend this CPU supports
// forced in turn: midstate precompute/finish_with_suffix equivalence at
// random split points and lengths, and hash_many vs N scalar hashes
// (equal-length batches that fill AVX2 lanes, mixed-length batches that
// exercise the run grouping, and degenerate shapes). The KATs
// themselves live in test_sha256.cpp, likewise backend-parameterized.

#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace {

using namespace powai;
using crypto::Digest;
using crypto::Sha256;
using crypto::Sha256Backend;
using crypto::Sha256Midstate;

common::Bytes random_bytes(common::Rng& rng, std::size_t n) {
  common::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
  }
  return out;
}

class Sha256Dispatch : public ::testing::TestWithParam<Sha256Backend> {
 protected:
  void SetUp() override {
    previous_ = Sha256::backend();
    ASSERT_TRUE(Sha256::set_backend(GetParam()));
  }
  void TearDown() override { ASSERT_TRUE(Sha256::set_backend(previous_)); }

 private:
  Sha256Backend previous_ = Sha256Backend::kGeneric;
};

// ---------------------------------------------------------------------------
// Midstate API
// ---------------------------------------------------------------------------

TEST_P(Sha256Dispatch, MidstateMatchesOneShotAtEverySplit) {
  // One message, every (prefix, suffix) split: precompute(prefix) +
  // finish_with_suffix(tail, suffix) must equal hash(message). Length
  // 150 covers prefixes of zero, one, and two full blocks.
  common::Rng rng(7);
  const common::Bytes message = random_bytes(rng, 150);
  const Digest expected = Sha256::hash(message);
  for (std::size_t split = 0; split <= message.size(); ++split) {
    const common::BytesView prefix(message.data(), split);
    const Sha256Midstate midstate = Sha256::precompute(prefix);
    ASSERT_EQ(midstate.absorbed % Sha256::kBlockSize, 0u);
    ASSERT_LE(midstate.absorbed, split);
    const common::BytesView tail(
        message.data() + midstate.absorbed,
        split - static_cast<std::size_t>(midstate.absorbed));
    const common::BytesView suffix(message.data() + split,
                                   message.size() - split);
    EXPECT_EQ(Sha256::finish_with_suffix(midstate, tail, suffix), expected)
        << "split at " << split;
  }
}

TEST_P(Sha256Dispatch, MidstateMatchesStreamingOnRandomShapes) {
  // Random prefix/suffix lengths, including suffixes long enough to
  // force the general (incremental) remainder path.
  common::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const common::Bytes prefix = random_bytes(rng, rng.uniform_u64(0, 300));
    const common::Bytes suffix = random_bytes(rng, rng.uniform_u64(0, 260));
    const Sha256Midstate midstate = Sha256::precompute(prefix);
    const common::BytesView tail(
        prefix.data() + midstate.absorbed,
        prefix.size() - static_cast<std::size_t>(midstate.absorbed));
    Sha256 stream;
    stream.update(prefix);
    stream.update(suffix);
    EXPECT_EQ(Sha256::finish_with_suffix(midstate, tail, suffix),
              stream.finish())
        << "prefix " << prefix.size() << " suffix " << suffix.size();
  }
}

TEST_P(Sha256Dispatch, MidstateIsReusableAndThreadAgnostic) {
  // One precompute, many suffixes — the solver's exact usage. The
  // midstate must be read-only: digesting suffix B after suffix A gives
  // the same answer as digesting B first.
  const common::Bytes prefix = common::bytes_of(
      "POWAI1|0123456789abcdef0123456789abcdef|1700000000000|12|192.0.2.1|");
  const Sha256Midstate midstate = Sha256::precompute(prefix);
  const common::BytesView tail(
      prefix.data() + midstate.absorbed,
      prefix.size() - static_cast<std::size_t>(midstate.absorbed));
  std::vector<Digest> first;
  for (std::uint64_t nonce = 0; nonce < 32; ++nonce) {
    std::uint8_t nonce_be[8];
    common::store_u64be(nonce_be, nonce);
    first.push_back(Sha256::finish_with_suffix(
        midstate, tail, common::BytesView(nonce_be, 8)));
    common::Bytes message = prefix;
    common::append_u64be(message, nonce);
    EXPECT_EQ(first.back(), Sha256::hash(message));
  }
  for (std::uint64_t nonce = 0; nonce < 32; ++nonce) {
    std::uint8_t nonce_be[8];
    common::store_u64be(nonce_be, nonce);
    EXPECT_EQ(Sha256::finish_with_suffix(midstate, tail,
                                         common::BytesView(nonce_be, 8)),
              first[nonce]);
  }
}

// ---------------------------------------------------------------------------
// hash_many
// ---------------------------------------------------------------------------

TEST_P(Sha256Dispatch, HashManyEqualLengthsMatchesScalar) {
  // Equal lengths at several batch sizes: below the lane width, exactly
  // one lane sweep, a partial trailing group, and multiple sweeps.
  common::Rng rng(13);
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{11}, std::size_t{64}}) {
    for (std::size_t len : {std::size_t{0}, std::size_t{55}, std::size_t{64},
                            std::size_t{108}, std::size_t{200}}) {
      std::vector<common::Bytes> messages;
      messages.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        messages.push_back(random_bytes(rng, len));
      }
      std::vector<common::BytesView> views(messages.begin(), messages.end());
      std::vector<Digest> out(n);
      Sha256::hash_many(views, out);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], Sha256::hash(views[i]))
            << "n=" << n << " len=" << len << " i=" << i;
      }
    }
  }
}

TEST_P(Sha256Dispatch, HashManyMixedLengthsMatchesScalar) {
  // Mixed lengths force the internal grouping-by-length; results must
  // land back at the caller's original indices.
  common::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = rng.uniform_u64(1, 40);
    std::vector<common::Bytes> messages;
    messages.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Skewed toward a few repeated lengths so equal-length runs form.
      const std::size_t len = 16 * rng.uniform_u64(0, 8);
      messages.push_back(random_bytes(rng, len));
    }
    std::vector<common::BytesView> views(messages.begin(), messages.end());
    std::vector<Digest> out(n);
    Sha256::hash_many(views, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], Sha256::hash(views[i])) << "trial " << trial;
    }
  }
}

TEST_P(Sha256Dispatch, HashManyEmptyBatchIsANoOp) {
  Sha256::hash_many({}, {});
}

TEST_P(Sha256Dispatch, HashManySizeMismatchThrows) {
  const common::Bytes message = common::bytes_of("x");
  const common::BytesView views[1] = {common::BytesView(message)};
  std::vector<Digest> out(2);
  EXPECT_THROW(Sha256::hash_many(views, out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// finish_many_with_suffix
// ---------------------------------------------------------------------------

TEST_P(Sha256Dispatch, FinishManyMatchesScalarFinishOnSolverShapes) {
  // The solver's exact shape — short tail, 8-byte suffixes — at batch
  // sizes below, at, and straddling every lane width (8 and 16),
  // including partial trailing groups.
  common::Rng rng(29);
  const common::Bytes prefix = random_bytes(rng, 70);  // one block + tail
  const Sha256Midstate midstate = Sha256::precompute(prefix);
  const common::BytesView tail(
      prefix.data() + midstate.absorbed,
      prefix.size() - static_cast<std::size_t>(midstate.absorbed));
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{15},
                        std::size_t{16}, std::size_t{17}, std::size_t{33}}) {
    std::vector<std::array<std::uint8_t, 8>> nonces(n);
    std::vector<common::BytesView> suffixes;
    suffixes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      common::store_u64be(nonces[i].data(), rng.uniform_u64(0, ~0ull));
      suffixes.emplace_back(nonces[i].data(), nonces[i].size());
    }
    std::vector<Digest> out(n);
    Sha256::finish_many_with_suffix(midstate, tail, suffixes, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], Sha256::finish_with_suffix(midstate, tail, suffixes[i]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(Sha256Dispatch, FinishManyMatchesScalarFinishOnRandomShapes) {
  // Random prefix/suffix lengths, including tails near block boundaries
  // (two pre-padded final blocks per lane) and suffixes long enough to
  // force the scalar fallback (tail + suffix + 9 > 128).
  common::Rng rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    const common::Bytes prefix = random_bytes(rng, rng.uniform_u64(0, 200));
    const Sha256Midstate midstate = Sha256::precompute(prefix);
    const common::BytesView tail(
        prefix.data() + midstate.absorbed,
        prefix.size() - static_cast<std::size_t>(midstate.absorbed));
    const std::size_t slen = rng.uniform_u64(0, 140);
    const std::size_t n = rng.uniform_u64(1, 40);
    std::vector<common::Bytes> suffix_store;
    suffix_store.reserve(n);
    std::vector<common::BytesView> suffixes;
    suffixes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      suffix_store.push_back(random_bytes(rng, slen));
      suffixes.emplace_back(suffix_store.back());
    }
    std::vector<Digest> out(n);
    Sha256::finish_many_with_suffix(midstate, tail, suffixes, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], Sha256::finish_with_suffix(midstate, tail, suffixes[i]))
          << "trial " << trial << " slen=" << slen << " i=" << i;
    }
  }
}

TEST_P(Sha256Dispatch, FinishManyEmptyBatchIsANoOp) {
  const Sha256Midstate midstate = Sha256::precompute({});
  Sha256::finish_many_with_suffix(midstate, {}, {}, {});
}

TEST_P(Sha256Dispatch, FinishManyRejectsMalformedBatches) {
  const common::Bytes prefix = common::bytes_of("prefix|");
  const Sha256Midstate midstate = Sha256::precompute(prefix);
  const common::Bytes a = common::bytes_of("12345678");
  const common::Bytes b = common::bytes_of("1234");  // different length

  const common::BytesView mismatched[2] = {common::BytesView(a),
                                           common::BytesView(b)};
  std::vector<Digest> out2(2);
  EXPECT_THROW(
      Sha256::finish_many_with_suffix(midstate, prefix, mismatched, out2),
      std::invalid_argument);

  const common::BytesView equal[2] = {common::BytesView(a),
                                      common::BytesView(a)};
  std::vector<Digest> out3(3);
  EXPECT_THROW(Sha256::finish_many_with_suffix(midstate, prefix, equal, out3),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sha256FinalBlocks + Sha256LaneSweep (the solver's path)
// ---------------------------------------------------------------------------

TEST_P(Sha256Dispatch, LaneSweepFinishesLaneWidthLanesLikeTheScalarFinish) {
  // One sweep per final-block shape: one block (tail <= 47), two with
  // the 8-byte hole in the first block (48-56), and a hole straddling
  // the boundary (57-63). The sweep runs lane_width() lanes — two
  // interleaved streams on SHA-NI — and every lane's words serialize
  // to the scalar finish of its own suffix.
  common::Rng rng(37);
  for (std::size_t tail_len : {std::size_t{0}, std::size_t{20},
                               std::size_t{47}, std::size_t{48},
                               std::size_t{56}, std::size_t{57},
                               std::size_t{63}}) {
    const common::Bytes prefix = random_bytes(rng, 64 + tail_len);
    const Sha256Midstate midstate = Sha256::precompute(prefix);
    const common::BytesView tail = common::BytesView(prefix).subspan(64);
    const crypto::Sha256FinalBlocks final =
        crypto::Sha256FinalBlocks::make(midstate, tail, 8);
    EXPECT_EQ(final.blocks(), tail_len + 8 + 9 <= 64 ? 1u : 2u);
    EXPECT_EQ(final.hole, tail_len);

    crypto::Sha256LaneSweep sweep(final);
    ASSERT_EQ(sweep.width(), Sha256::lane_width(GetParam()));
    std::vector<std::array<std::uint8_t, 8>> nonces(sweep.width());
    for (std::size_t l = 0; l < sweep.width(); ++l) {
      common::store_u64be(nonces[l].data(), rng.uniform_u64(0, ~0ull));
      std::copy(nonces[l].begin(), nonces[l].end(), sweep.hole(l));
    }
    sweep.run(midstate);
    for (std::size_t l = 0; l < sweep.width(); ++l) {
      EXPECT_EQ(crypto::to_digest(sweep.state(l)),
                Sha256::finish_with_suffix(midstate, tail, nonces[l]))
          << "tail=" << tail_len << " lane=" << l;
    }
  }
}

TEST(Sha256FinalBlocks, RejectsShapesBeyondTwoBlocks) {
  const common::Bytes prefix(63, 0x61);
  const Sha256Midstate midstate = Sha256::precompute(prefix);
  EXPECT_EQ(crypto::Sha256FinalBlocks::make(midstate, prefix, 56).blocks(),
            2u);
  EXPECT_THROW((void)crypto::Sha256FinalBlocks::make(midstate, prefix, 57),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, Sha256Dispatch,
    ::testing::ValuesIn(Sha256::supported_backends()),
    [](const ::testing::TestParamInfo<Sha256Backend>& info) {
      return std::string(Sha256::backend_name(info.param));
    });

// ---------------------------------------------------------------------------
// lane_width
// ---------------------------------------------------------------------------

TEST(Sha256LaneWidth, MultiLaneBackendsReportTheirSweepWidth) {
  EXPECT_EQ(Sha256::lane_width(Sha256Backend::kGeneric), 1u);
  EXPECT_EQ(Sha256::lane_width(Sha256Backend::kShaNi), 2u);
  EXPECT_EQ(Sha256::lane_width(Sha256Backend::kArmv8), 1u);
  EXPECT_EQ(Sha256::lane_width(Sha256Backend::kAvx2), 8u);
  EXPECT_EQ(Sha256::lane_width(Sha256Backend::kAvx512), 16u);
  EXPECT_EQ(Sha256::lane_width(Sha256Backend::kShaNiAvx512), 16u);
}

// ---------------------------------------------------------------------------
// backend_from_name — the POWAI_SHA256_BACKEND resolution path
// ---------------------------------------------------------------------------

TEST(Sha256BackendFromName, AutoAndEmptyPickASupportedBackend) {
  const auto supported = Sha256::supported_backends();
  for (std::string_view name : {std::string_view{"auto"}, std::string_view{}}) {
    const Sha256Backend b = Sha256::backend_from_name(name);
    EXPECT_NE(std::find(supported.begin(), supported.end(), b),
              supported.end());
  }
}

TEST(Sha256BackendFromName, KnownNamesResolveOrThrowWhenUnsupported) {
  // Every stable name round-trips when this CPU supports the backend;
  // a known-but-unsupported name must fail loudly, not fall back.
  const auto supported = Sha256::supported_backends();
  for (Sha256Backend b :
       {Sha256Backend::kGeneric, Sha256Backend::kShaNi, Sha256Backend::kAvx2,
        Sha256Backend::kAvx512, Sha256Backend::kArmv8,
        Sha256Backend::kShaNiAvx512}) {
    const std::string_view name = Sha256::backend_name(b);
    const bool is_supported =
        std::find(supported.begin(), supported.end(), b) != supported.end();
    if (is_supported) {
      EXPECT_EQ(Sha256::backend_from_name(name), b) << name;
    } else {
      EXPECT_THROW((void)Sha256::backend_from_name(name), std::runtime_error)
          << name;
    }
  }
}

TEST(Sha256BackendFromName, AutoPairsShaNiWithTheWidestSweep) {
  // The pair runs exactly where both halves run. Where it does, auto
  // picks it and lane sweeps are 16 wide; SHA-NI without AVX-512 keeps
  // auto on the plain SHA-NI backend.
  const auto supported = Sha256::supported_backends();
  const auto has = [&](Sha256Backend b) {
    return std::find(supported.begin(), supported.end(), b) != supported.end();
  };
  const bool shani = has(Sha256Backend::kShaNi);
  const bool avx512 = has(Sha256Backend::kAvx512);
  EXPECT_EQ(has(Sha256Backend::kShaNiAvx512), shani && avx512);

  const Sha256Backend picked = Sha256::backend_from_name("auto");
  if (shani && avx512) {
    EXPECT_EQ(picked, Sha256Backend::kShaNiAvx512);
    const Sha256Backend previous = Sha256::backend();
    ASSERT_TRUE(Sha256::set_backend(picked));
    const auto ms = Sha256::precompute({});
    const crypto::Sha256LaneSweep sweep(
        crypto::Sha256FinalBlocks::make(ms, {}, 8));
    EXPECT_EQ(sweep.width(), 16u);
    ASSERT_TRUE(Sha256::set_backend(previous));
  } else if (shani) {
    EXPECT_EQ(picked, Sha256Backend::kShaNi);
  }
}

TEST(Sha256BackendFromName, UnknownNameThrowsNamingAcceptedValues) {
  for (std::string_view bogus : {"sse2", "AVX2", "fastest", "generic "}) {
    try {
      (void)Sha256::backend_from_name(bogus);
      FAIL() << "expected std::runtime_error for '" << bogus << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("POWAI_SHA256_BACKEND"), std::string::npos) << what;
      EXPECT_NE(what.find("generic"), std::string::npos) << what;
      EXPECT_NE(what.find("armv8"), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-backend agreement (not parameterized: compares backends pairwise)
// ---------------------------------------------------------------------------

TEST(Sha256DispatchCross, AllBackendsAgreeOnRandomMessages) {
  const auto backends = Sha256::supported_backends();
  const Sha256Backend previous = Sha256::backend();
  common::Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const common::Bytes message = random_bytes(rng, rng.uniform_u64(0, 400));
    std::vector<Digest> digests;
    for (Sha256Backend b : backends) {
      ASSERT_TRUE(Sha256::set_backend(b));
      digests.push_back(Sha256::hash(message));
    }
    for (std::size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i], digests[0])
          << Sha256::backend_name(backends[i]) << " disagrees with "
          << Sha256::backend_name(backends[0]) << " on length "
          << message.size();
    }
  }
  ASSERT_TRUE(Sha256::set_backend(previous));
}

}  // namespace
