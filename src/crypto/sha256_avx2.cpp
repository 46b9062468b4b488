/// \file sha256_avx2.cpp
/// 8-way multi-buffer SHA-256: eight independent equal-length messages
/// hashed simultaneously, one message per 32-bit lane of a YMM register
/// (the classic transposed "SHA-256 MB" layout). Padding is identical
/// across lanes because the lengths are equal, so whole messages —
/// padding included — run through one vectorized round function.
///
/// Two entry points share the round function: hash8_avx2 (eight whole
/// messages from the initial state) and finish8_avx2 (eight pre-padded
/// final blocks from one shared midstate — the solver's nonce sweep —
/// returned as chaining words).
///
/// Compiled into every build (per-function target attribute); only
/// reached through Sha256::hash_many / Sha256LaneSweep after
/// the cpu_supports_avx2() check. Bit-exactness against the scalar
/// reference is pinned by the cross-check tests run with each backend
/// forced.

#include "crypto/sha256_dispatch.hpp"

#ifdef POWAI_SHA256_X86_DISPATCH

#include <immintrin.h>

#include <cstring>

namespace powai::crypto::detail {

namespace {

alignas(32) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

__attribute__((target("avx2"))) inline __m256i rotr32(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

/// One 64-byte block per lane: ptrs[l] points at lane l's block.
__attribute__((target("avx2"))) void compress8_block(
    __m256i st[8], const std::uint8_t* const ptrs[8]) {
  // Transposed message load: w[t] holds word t of all eight lanes,
  // byte-swapped to big-endian via one shuffle per vector.
  const __m256i bswap = _mm256_set_epi8(
      12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,  //
      12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  __m256i w[16];
  for (int t = 0; t < 16; ++t) {
    std::uint32_t lane_words[8];
    for (int l = 0; l < 8; ++l) {
      std::memcpy(&lane_words[l], ptrs[l] + 4 * t, 4);
    }
    w[t] = _mm256_shuffle_epi8(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lane_words)),
        bswap);
  }

  __m256i a = st[0], b = st[1], c = st[2], d = st[3];
  __m256i e = st[4], f = st[5], g = st[6], h = st[7];

  for (int t = 0; t < 64; ++t) {
    if (t >= 16) {
      const __m256i w15 = w[(t - 15) & 15];
      const __m256i w2 = w[(t - 2) & 15];
      const __m256i s0 = _mm256_xor_si256(
          _mm256_xor_si256(rotr32(w15, 7), rotr32(w15, 18)),
          _mm256_srli_epi32(w15, 3));
      const __m256i s1 = _mm256_xor_si256(
          _mm256_xor_si256(rotr32(w2, 17), rotr32(w2, 19)),
          _mm256_srli_epi32(w2, 10));
      w[t & 15] = _mm256_add_epi32(
          _mm256_add_epi32(w[t & 15], s0),
          _mm256_add_epi32(w[(t - 7) & 15], s1));
    }
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32(e, 6), rotr32(e, 11)), rotr32(e, 25));
    const __m256i ch = _mm256_xor_si256(
        _mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
    const __m256i t1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, s1), ch),
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(kK[t])),
                         w[t & 15]));
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32(a, 2), rotr32(a, 13)), rotr32(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i t2 = _mm256_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(t1, t2);
  }

  st[0] = _mm256_add_epi32(st[0], a);
  st[1] = _mm256_add_epi32(st[1], b);
  st[2] = _mm256_add_epi32(st[2], c);
  st[3] = _mm256_add_epi32(st[3], d);
  st[4] = _mm256_add_epi32(st[4], e);
  st[5] = _mm256_add_epi32(st[5], f);
  st[6] = _mm256_add_epi32(st[6], g);
  st[7] = _mm256_add_epi32(st[7], h);
}

/// Un-transpose: lane l's words st[0..7][l], stored big-endian.
__attribute__((target("avx2"))) void store_digests8(const __m256i st[8],
                                                    std::uint8_t (*out)[32]) {
  alignas(32) std::uint32_t words[8][8];  // words[word][lane]
  for (int wrd = 0; wrd < 8; ++wrd) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(words[wrd]), st[wrd]);
  }
  for (int l = 0; l < 8; ++l) {
    for (int wrd = 0; wrd < 8; ++wrd) {
      const std::uint32_t v = words[wrd][l];
      out[l][4 * wrd + 0] = static_cast<std::uint8_t>(v >> 24);
      out[l][4 * wrd + 1] = static_cast<std::uint8_t>(v >> 16);
      out[l][4 * wrd + 2] = static_cast<std::uint8_t>(v >> 8);
      out[l][4 * wrd + 3] = static_cast<std::uint8_t>(v);
    }
  }
}

/// Un-transpose without serializing: out[l][w] = st[w][l].
__attribute__((target("avx2"))) void store_states8(
    const __m256i st[8], std::array<std::uint32_t, 8>* out) {
  alignas(32) std::uint32_t words[8][8];  // words[word][lane]
  for (int wrd = 0; wrd < 8; ++wrd) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(words[wrd]), st[wrd]);
  }
  for (int l = 0; l < 8; ++l) {
    for (int wrd = 0; wrd < 8; ++wrd) out[l][wrd] = words[wrd][l];
  }
}

}  // namespace

__attribute__((target("avx2"))) void hash8_avx2(
    const std::uint8_t* const msgs[8], std::size_t len,
    std::uint8_t (*out)[32]) {
  __m256i st[8] = {
      _mm256_set1_epi32(static_cast<int>(0x6a09e667)),
      _mm256_set1_epi32(static_cast<int>(0xbb67ae85)),
      _mm256_set1_epi32(static_cast<int>(0x3c6ef372)),
      _mm256_set1_epi32(static_cast<int>(0xa54ff53a)),
      _mm256_set1_epi32(static_cast<int>(0x510e527f)),
      _mm256_set1_epi32(static_cast<int>(0x9b05688c)),
      _mm256_set1_epi32(static_cast<int>(0x1f83d9ab)),
      _mm256_set1_epi32(static_cast<int>(0x5be0cd19)),
  };

  // Full 64-byte blocks straight from the messages.
  const std::size_t full_blocks = len / 64;
  const std::size_t rem = len % 64;
  const std::uint8_t* ptrs[8];
  for (std::size_t blk = 0; blk < full_blocks; ++blk) {
    for (int l = 0; l < 8; ++l) ptrs[l] = msgs[l] + blk * 64;
    compress8_block(st, ptrs);
  }

  // Remainder + padding: equal lengths mean one shared layout. Build
  // each lane's final one or two blocks on the stack.
  const std::size_t pad_blocks = (rem + 9 <= 64) ? 1 : 2;
  const std::size_t padded = pad_blocks * 64;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(len) * 8;
  std::uint8_t tail[8][128];
  for (int l = 0; l < 8; ++l) {
    if (rem > 0) std::memcpy(tail[l], msgs[l] + full_blocks * 64, rem);
    tail[l][rem] = 0x80;
    std::memset(tail[l] + rem + 1, 0, padded - 8 - (rem + 1));
    for (int i = 0; i < 8; ++i) {
      tail[l][padded - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    }
  }
  for (std::size_t blk = 0; blk < pad_blocks; ++blk) {
    for (int l = 0; l < 8; ++l) ptrs[l] = tail[l] + blk * 64;
    compress8_block(st, ptrs);
  }

  store_digests8(st, out);
}

__attribute__((target("avx2"))) void finish8_avx2(
    const std::uint32_t state[8], const std::uint8_t* const blocks[8],
    std::size_t blocks_per_lane, std::array<std::uint32_t, 8>* out) {
  // Every lane starts from the same chaining state (the shared
  // midstate) and compresses its own pre-padded final block(s).
  __m256i st[8];
  for (int i = 0; i < 8; ++i) {
    st[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
  }
  const std::uint8_t* ptrs[8];
  for (std::size_t blk = 0; blk < blocks_per_lane; ++blk) {
    for (int l = 0; l < 8; ++l) ptrs[l] = blocks[l] + blk * 64;
    compress8_block(st, ptrs);
  }
  store_states8(st, out);
}

}  // namespace powai::crypto::detail

#endif  // POWAI_SHA256_X86_DISPATCH
