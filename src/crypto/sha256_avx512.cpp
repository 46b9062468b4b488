/// \file sha256_avx512.cpp
/// 16-way multi-buffer SHA-256: sixteen independent messages advanced
/// simultaneously, one message per 32-bit lane of a ZMM register — the
/// AVX-512 widening of the AVX2 backend's transposed layout. AVX-512F
/// has a native 32-bit rotate (vprord — the compiler folds the shift-or
/// idiom below into it), so the round function needs one instruction
/// where AVX2 needs three; AVX512BW contributes the byte shuffle used
/// for the big-endian loads.
///
/// Two entry points share the round function: hash16_avx512 (sixteen
/// whole equal-length messages from the initial state) and
/// finish16_avx512 (sixteen pre-padded final blocks from one shared
/// midstate — the solver's nonce sweep — returned as chaining words).
///
/// Compiled into every build (per-function target attributes); only
/// reached through Sha256::hash_many / Sha256LaneSweep after
/// the cpu_supports_avx512() check. Bit-exactness against the scalar
/// reference is pinned by the cross-check tests run with each backend
/// forced.

#include "crypto/sha256_dispatch.hpp"

#ifdef POWAI_SHA256_X86_DISPATCH

#include <immintrin.h>

#include <cstring>

namespace powai::crypto::detail {

namespace {

alignas(64) constexpr std::uint32_t kK[64] = {
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

// Not _mm512_ror_epi32: GCC implements that intrinsic atop
// _mm512_undefined_epi32(), which -Werror=uninitialized rejects. The
// shift-or idiom compiles to the same single vprord.
__attribute__((target("avx512f,avx512bw"))) inline __m512i rotr32(__m512i x,
                                                                  int n) {
  return _mm512_or_si512(_mm512_srli_epi32(x, n), _mm512_slli_epi32(x, 32 - n));
}

/// One 64-byte block per lane: ptrs[l] points at lane l's block.
__attribute__((target("avx512f,avx512bw"))) void compress16_block(
    __m512i st[8], const std::uint8_t* const ptrs[16]) {
  // Transposed message load: w[t] holds word t of all sixteen lanes,
  // byte-swapped to big-endian via one shuffle per vector (the 16-byte
  // pattern repeats across the four 128-bit sublanes).
  const __m512i bswap = _mm512_broadcast_i32x4(_mm_set_epi8(
      12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3));
  __m512i w[16];
  for (int t = 0; t < 16; ++t) {
    alignas(64) std::uint32_t lane_words[16];
    for (int l = 0; l < 16; ++l) {
      std::memcpy(&lane_words[l], ptrs[l] + 4 * t, 4);
    }
    w[t] = _mm512_shuffle_epi8(_mm512_load_si512(lane_words), bswap);
  }

  __m512i a = st[0], b = st[1], c = st[2], d = st[3];
  __m512i e = st[4], f = st[5], g = st[6], h = st[7];

  for (int t = 0; t < 64; ++t) {
    if (t >= 16) {
      const __m512i w15 = w[(t - 15) & 15];
      const __m512i w2 = w[(t - 2) & 15];
      const __m512i s0 = _mm512_xor_si512(
          _mm512_xor_si512(rotr32(w15, 7), rotr32(w15, 18)),
          _mm512_srli_epi32(w15, 3));
      const __m512i s1 = _mm512_xor_si512(
          _mm512_xor_si512(rotr32(w2, 17), rotr32(w2, 19)),
          _mm512_srli_epi32(w2, 10));
      w[t & 15] = _mm512_add_epi32(
          _mm512_add_epi32(w[t & 15], s0),
          _mm512_add_epi32(w[(t - 7) & 15], s1));
    }
    const __m512i s1 = _mm512_xor_si512(
        _mm512_xor_si512(rotr32(e, 6), rotr32(e, 11)),
        rotr32(e, 25));
    const __m512i ch = _mm512_xor_si512(_mm512_and_si512(e, f),
                                        _mm512_andnot_si512(e, g));
    const __m512i t1 = _mm512_add_epi32(
        _mm512_add_epi32(_mm512_add_epi32(h, s1), ch),
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(kK[t])),
                         w[t & 15]));
    const __m512i s0 = _mm512_xor_si512(
        _mm512_xor_si512(rotr32(a, 2), rotr32(a, 13)),
        rotr32(a, 22));
    const __m512i maj = _mm512_xor_si512(
        _mm512_xor_si512(_mm512_and_si512(a, b), _mm512_and_si512(a, c)),
        _mm512_and_si512(b, c));
    const __m512i t2 = _mm512_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm512_add_epi32(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm512_add_epi32(t1, t2);
  }

  st[0] = _mm512_add_epi32(st[0], a);
  st[1] = _mm512_add_epi32(st[1], b);
  st[2] = _mm512_add_epi32(st[2], c);
  st[3] = _mm512_add_epi32(st[3], d);
  st[4] = _mm512_add_epi32(st[4], e);
  st[5] = _mm512_add_epi32(st[5], f);
  st[6] = _mm512_add_epi32(st[6], g);
  st[7] = _mm512_add_epi32(st[7], h);
}

/// Un-transpose: lane l's words st[0..7][l], stored big-endian.
__attribute__((target("avx512f,avx512bw"))) void store_digests16(
    const __m512i st[8], std::uint8_t (*out)[32]) {
  alignas(64) std::uint32_t words[8][16];  // words[word][lane]
  for (int wrd = 0; wrd < 8; ++wrd) {
    _mm512_store_si512(words[wrd], st[wrd]);
  }
  for (int l = 0; l < 16; ++l) {
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
__attribute__((target("avx512f,avx512bw"))) void store_states16(
    const __m512i st[8], std::array<std::uint32_t, 8>* out) {
  alignas(64) std::uint32_t words[8][16];  // words[word][lane]
  for (int wrd = 0; wrd < 8; ++wrd) {
    _mm512_store_si512(words[wrd], st[wrd]);
  }
  for (int l = 0; l < 16; ++l) {
    for (int wrd = 0; wrd < 8; ++wrd) out[l][wrd] = words[wrd][l];
  }
}

}  // namespace

__attribute__((target("avx512f,avx512bw"))) void hash16_avx512(
    const std::uint8_t* const msgs[16], std::size_t len,
    std::uint8_t (*out)[32]) {
  __m512i st[8] = {
      _mm512_set1_epi32(static_cast<int>(0x6a09e667)),
      _mm512_set1_epi32(static_cast<int>(0xbb67ae85)),
      _mm512_set1_epi32(static_cast<int>(0x3c6ef372)),
      _mm512_set1_epi32(static_cast<int>(0xa54ff53a)),
      _mm512_set1_epi32(static_cast<int>(0x510e527f)),
      _mm512_set1_epi32(static_cast<int>(0x9b05688c)),
      _mm512_set1_epi32(static_cast<int>(0x1f83d9ab)),
      _mm512_set1_epi32(static_cast<int>(0x5be0cd19)),
  };

  // Full 64-byte blocks straight from the messages.
  const std::size_t full_blocks = len / 64;
  const std::size_t rem = len % 64;
  const std::uint8_t* ptrs[16];
  for (std::size_t blk = 0; blk < full_blocks; ++blk) {
    for (int l = 0; l < 16; ++l) ptrs[l] = msgs[l] + blk * 64;
    compress16_block(st, ptrs);
  }

  // Remainder + padding: equal lengths mean one shared layout. Build
  // each lane's final one or two blocks on the stack.
  const std::size_t pad_blocks = (rem + 9 <= 64) ? 1 : 2;
  const std::size_t padded = pad_blocks * 64;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(len) * 8;
  std::uint8_t tail[16][128];
  for (int l = 0; l < 16; ++l) {
    if (rem > 0) std::memcpy(tail[l], msgs[l] + full_blocks * 64, rem);
    tail[l][rem] = 0x80;
    std::memset(tail[l] + rem + 1, 0, padded - 8 - (rem + 1));
    for (int i = 0; i < 8; ++i) {
      tail[l][padded - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    }
  }
  for (std::size_t blk = 0; blk < pad_blocks; ++blk) {
    for (int l = 0; l < 16; ++l) ptrs[l] = tail[l] + blk * 64;
    compress16_block(st, ptrs);
  }

  store_digests16(st, out);
}

__attribute__((target("avx512f,avx512bw"))) void finish16_avx512(
    const std::uint32_t state[8], const std::uint8_t* const blocks[16],
    std::size_t blocks_per_lane, std::array<std::uint32_t, 8>* out) {
  // Every lane starts from the same chaining state (the shared
  // midstate) and compresses its own pre-padded final block(s).
  __m512i st[8];
  for (int i = 0; i < 8; ++i) {
    st[i] = _mm512_set1_epi32(static_cast<int>(state[i]));
  }
  const std::uint8_t* ptrs[16];
  for (std::size_t blk = 0; blk < blocks_per_lane; ++blk) {
    for (int l = 0; l < 16; ++l) ptrs[l] = blocks[l] + blk * 64;
    compress16_block(st, ptrs);
  }
  store_states16(st, out);
}

}  // namespace powai::crypto::detail

#endif  // POWAI_SHA256_X86_DISPATCH
