/// \file sha256_shani.cpp
/// SHA-256 compression via the x86 SHA extensions (sha256rnds2 /
/// sha256msg1 / sha256msg2), in two shapes built from the same
/// four-round step: compress_shani (one stream, the compress_generic
/// contract) and finish2_shani (two independent final-block sets from
/// one shared midstate, interleaved round by round — the technique of
/// the Linux kernel's sha256_ni_finup2x — so each stream's sha256rnds2
/// latency is hidden behind the other's). Verified bit-exact against
/// the scalar reference by the KAT and property suites, which CI runs
/// with each backend forced.
///
/// Compiled into every build (no special flags: the kernels carry
/// per-function target attributes) and only ever called after the CPUID
/// check in cpu_supports_shani().

#include "crypto/sha256_dispatch.hpp"

#ifdef POWAI_SHA256_X86_DISPATCH

#include <cpuid.h>
#include <immintrin.h>

namespace powai::crypto::detail {

namespace {

/// XCR0 via xgetbv, or 0 when the OS does not expose it (no OSXSAVE).
std::uint32_t xcr0_low() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  if (((ecx >> 27) & 1u) == 0) return 0;  // OSXSAVE
  std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  return xcr0_lo;
}

/// Are YMM (bit 2) and XMM (bit 1) state OS-enabled?
bool os_enables_ymm() { return (xcr0_low() & 0x6u) == 0x6u; }

/// Are opmask/ZMM (bits 5-7) on top of XMM/YMM state OS-enabled?
bool os_enables_zmm() { return (xcr0_low() & 0xE6u) == 0xE6u; }

}  // namespace

bool cpu_supports_shani() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse_levels = ((ecx >> 0) & 1u) != 0 &&   // SSE3
                          ((ecx >> 9) & 1u) != 0 &&   // SSSE3
                          ((ecx >> 19) & 1u) != 0;    // SSE4.1
  if (!sse_levels) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return ((ebx >> 29) & 1u) != 0;  // SHA
}

bool cpu_supports_avx2() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  if (((ebx >> 5) & 1u) == 0) return false;  // AVX2
  return os_enables_ymm();
}

bool cpu_supports_avx512() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool levels = ((ebx >> 16) & 1u) != 0 &&  // AVX512F
                      ((ebx >> 30) & 1u) != 0;    // AVX512BW
  return levels && os_enables_zmm();
}

namespace {

#define POWAI_SHANI_INLINE \
  __attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline

alignas(16) constexpr std::uint32_t kK[64] = {
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

/// sha256rnds2 wants the state split as ABEF / CDGH.
POWAI_SHANI_INLINE void load_abef_cdgh(const std::uint32_t* state,
                                       __m128i& abef, __m128i& cdgh) {
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);    // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);  // EFGH
  abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);  // CDGH
}

/// ABEF / CDGH back to the eight words in ABCDEFGH order.
POWAI_SHANI_INLINE void store_abef_cdgh(__m128i abef, __m128i cdgh,
                                        std::uint32_t* state) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // ABCD
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // EFGH
}

/// Message words 4i..4i+3 of a block, byte-swapped to big-endian.
POWAI_SHANI_INLINE __m128i load_words(const std::uint8_t* block, int i) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
      kShuffle);
}

/// W[t..t+3] from W[t-16..t-1], held as four vectors oldest first.
POWAI_SHANI_INLINE __m128i schedule(__m128i w0, __m128i w1, __m128i w2,
                                    __m128i w3) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}

/// Rounds 4q..4q+3 of one stream, with message words \p w.
POWAI_SHANI_INLINE void rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                                int q) {
  __m128i msg = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
}

/// One 64-byte block of one stream.
POWAI_SHANI_INLINE void block1(__m128i& abef, __m128i& cdgh,
                               const std::uint8_t* block) {
  const __m128i save_abef = abef;
  const __m128i save_cdgh = cdgh;
  __m128i w[4];
  for (int i = 0; i < 4; ++i) w[i] = load_words(block, i);
#pragma GCC unroll 16
  for (int q = 0; q < 16; ++q) {
    if (q >= 4) {
      w[q & 3] = schedule(w[q & 3], w[(q + 1) & 3], w[(q + 2) & 3],
                          w[(q + 3) & 3]);
    }
    rounds4(abef, cdgh, w[q & 3], q);
  }
  abef = _mm_add_epi32(abef, save_abef);
  cdgh = _mm_add_epi32(cdgh, save_cdgh);
}

/// One 64-byte block of each of two independent streams. The streams
/// alternate instruction by instruction, so each sha256rnds2 issues
/// while the other stream's previous one is still in flight.
POWAI_SHANI_INLINE void block2(__m128i& a_abef, __m128i& a_cdgh,
                               __m128i& b_abef, __m128i& b_cdgh,
                               const std::uint8_t* a_block,
                               const std::uint8_t* b_block) {
  const __m128i a_save_abef = a_abef;
  const __m128i a_save_cdgh = a_cdgh;
  const __m128i b_save_abef = b_abef;
  const __m128i b_save_cdgh = b_cdgh;
  __m128i a[4];
  __m128i b[4];
  for (int i = 0; i < 4; ++i) {
    a[i] = load_words(a_block, i);
    b[i] = load_words(b_block, i);
  }
#pragma GCC unroll 16
  for (int q = 0; q < 16; ++q) {
    if (q >= 4) {
      a[q & 3] = schedule(a[q & 3], a[(q + 1) & 3], a[(q + 2) & 3],
                          a[(q + 3) & 3]);
      b[q & 3] = schedule(b[q & 3], b[(q + 1) & 3], b[(q + 2) & 3],
                          b[(q + 3) & 3]);
    }
    const __m128i k =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * q));
    __m128i a_msg = _mm_add_epi32(a[q & 3], k);
    __m128i b_msg = _mm_add_epi32(b[q & 3], k);
    a_cdgh = _mm_sha256rnds2_epu32(a_cdgh, a_abef, a_msg);
    b_cdgh = _mm_sha256rnds2_epu32(b_cdgh, b_abef, b_msg);
    a_msg = _mm_shuffle_epi32(a_msg, 0x0E);
    b_msg = _mm_shuffle_epi32(b_msg, 0x0E);
    a_abef = _mm_sha256rnds2_epu32(a_abef, a_cdgh, a_msg);
    b_abef = _mm_sha256rnds2_epu32(b_abef, b_cdgh, b_msg);
  }
  a_abef = _mm_add_epi32(a_abef, a_save_abef);
  a_cdgh = _mm_add_epi32(a_cdgh, a_save_cdgh);
  b_abef = _mm_add_epi32(b_abef, b_save_abef);
  b_cdgh = _mm_add_epi32(b_cdgh, b_save_cdgh);
}

#undef POWAI_SHANI_INLINE

}  // namespace

__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
  __m128i abef, cdgh;
  load_abef_cdgh(state, abef, cdgh);
  for (; n > 0; --n, blocks += 64) block1(abef, cdgh, blocks);
  store_abef_cdgh(abef, cdgh, state);
}

__attribute__((target("sha,sse4.1,ssse3"))) void finish2_shani(
    const std::uint32_t state[8], const std::uint8_t* const blocks[2],
    std::size_t blocks_per_lane, std::array<std::uint32_t, 8>* out) {
  // The shared midstate is split into ABEF / CDGH once for both lanes.
  __m128i a_abef, a_cdgh;
  load_abef_cdgh(state, a_abef, a_cdgh);
  __m128i b_abef = a_abef;
  __m128i b_cdgh = a_cdgh;
  for (std::size_t blk = 0; blk < blocks_per_lane; ++blk) {
    block2(a_abef, a_cdgh, b_abef, b_cdgh, blocks[0] + 64 * blk,
           blocks[1] + 64 * blk);
  }
  store_abef_cdgh(a_abef, a_cdgh, out[0].data());
  store_abef_cdgh(b_abef, b_cdgh, out[1].data());
}

}  // namespace powai::crypto::detail

#endif  // POWAI_SHA256_X86_DISPATCH
