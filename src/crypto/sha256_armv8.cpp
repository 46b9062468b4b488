/// \file sha256_armv8.cpp
/// ARMv8 crypto-extension SHA-256: the SHA2 instructions (vsha256hq,
/// vsha256h2q, vsha256su0q, vsha256su1q) compute four rounds per
/// instruction pair on 128-bit NEON registers, one message stream at a
/// time — the AArch64 analogue of the x86 SHA-NI backend's
/// compress_shani. There is no interleaved finish yet, so solver sweeps
/// run it one lane at a time (lane_width 1): midstate reuse and the
/// pre-padded final block, not lane parallelism, are the win here.
///
/// The whole translation unit is compiled only on AArch64
/// (POWAI_SHA256_ARM_DISPATCH); within it the kernel is fenced behind a
/// feature pragma so the surrounding build needs no global -march
/// flags. cpu_supports_armv8_sha2() consults HWCAP at runtime, so a
/// binary built here still starts correctly on a core without the
/// extension (the dispatcher falls back to generic).

#include "crypto/sha256_dispatch.hpp"

#ifdef POWAI_SHA256_ARM_DISPATCH

#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_SHA2
#define HWCAP_SHA2 (1 << 6)
#endif
#endif

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("neon,sha2"))), \
                             apply_to = function)
#elif defined(__GNUC__)
#pragma GCC push_options
#pragma GCC target("+simd+crypto")
#endif

#include <arm_neon.h>

namespace powai::crypto::detail {

namespace {

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

}  // namespace

bool cpu_supports_armv8_sha2() {
#if defined(__APPLE__)
  // Every Apple arm64 core ships the SHA-2 extension.
  return true;
#elif defined(__linux__)
  return (getauxval(AT_HWCAP) & HWCAP_SHA2) != 0;
#else
  return false;
#endif
}

void compress_armv8(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t n) {
  // State lives in two quadwords: abcd = {a,b,c,d}, efgh = {e,f,g,h}.
  uint32x4_t abcd = vld1q_u32(state);
  uint32x4_t efgh = vld1q_u32(state + 4);

  while (n-- > 0) {
    const uint32x4_t abcd_save = abcd;
    const uint32x4_t efgh_save = efgh;

    // Load the sixteen message words, byte-swapped to big-endian.
    uint32x4_t w0 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(blocks)));
    uint32x4_t w1 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(blocks + 16)));
    uint32x4_t w2 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(blocks + 32)));
    uint32x4_t w3 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(blocks + 48)));

    uint32x4_t k, wk, tmp;

    // Rounds t..t+3: wk = w + K[t..t+3]; vsha256hq/h2q advance both
    // state halves four rounds. The schedule vectors rotate w0<-w1<-
    // w2<-w3 with vsha256su0/su1 extending sixteen words ahead.
#define POWAI_SHA256_ROUNDS4(i, a, b, c, d)                    \
  do {                                                         \
    k = vld1q_u32(&kK[4 * (i)]);                               \
    wk = vaddq_u32((a), k);                                    \
    tmp = abcd;                                                \
    abcd = vsha256hq_u32(abcd, efgh, wk);                      \
    efgh = vsha256h2q_u32(efgh, tmp, wk);                      \
    if ((i) < 12) {                                            \
      (a) = vsha256su1q_u32(vsha256su0q_u32((a), (b)), (c), (d)); \
    }                                                          \
  } while (0)

    POWAI_SHA256_ROUNDS4(0, w0, w1, w2, w3);
    POWAI_SHA256_ROUNDS4(1, w1, w2, w3, w0);
    POWAI_SHA256_ROUNDS4(2, w2, w3, w0, w1);
    POWAI_SHA256_ROUNDS4(3, w3, w0, w1, w2);
    POWAI_SHA256_ROUNDS4(4, w0, w1, w2, w3);
    POWAI_SHA256_ROUNDS4(5, w1, w2, w3, w0);
    POWAI_SHA256_ROUNDS4(6, w2, w3, w0, w1);
    POWAI_SHA256_ROUNDS4(7, w3, w0, w1, w2);
    POWAI_SHA256_ROUNDS4(8, w0, w1, w2, w3);
    POWAI_SHA256_ROUNDS4(9, w1, w2, w3, w0);
    POWAI_SHA256_ROUNDS4(10, w2, w3, w0, w1);
    POWAI_SHA256_ROUNDS4(11, w3, w0, w1, w2);
    POWAI_SHA256_ROUNDS4(12, w0, w1, w2, w3);
    POWAI_SHA256_ROUNDS4(13, w1, w2, w3, w0);
    POWAI_SHA256_ROUNDS4(14, w2, w3, w0, w1);
    POWAI_SHA256_ROUNDS4(15, w3, w0, w1, w2);

#undef POWAI_SHA256_ROUNDS4

    abcd = vaddq_u32(abcd, abcd_save);
    efgh = vaddq_u32(efgh, efgh_save);
    blocks += 64;
  }

  vst1q_u32(state, abcd);
  vst1q_u32(state + 4, efgh);
}

}  // namespace powai::crypto::detail

#if defined(__clang__)
#pragma clang attribute pop
#elif defined(__GNUC__)
#pragma GCC pop_options
#endif

#endif  // POWAI_SHA256_ARM_DISPATCH
