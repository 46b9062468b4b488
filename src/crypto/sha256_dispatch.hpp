#pragma once
/// \file sha256_dispatch.hpp
/// Internal seam between the portable SHA-256 front end (sha256.cpp) and
/// the CPU-specific compression backends (sha256_shani.cpp,
/// sha256_avx2.cpp, sha256_avx512.cpp, sha256_armv8.cpp). Not part of
/// the public API — include sha256.hpp.
///
/// Two kernel shapes:
///  - single-stream: fold \p n contiguous 64-byte blocks (big-endian
///    words) into \p state — the compress_generic contract, implemented
///    by the scalar reference, x86 SHA-NI, and ARMv8-CE kernels;
///  - lane finish (finishW): W independent final-block sets advanced
///    together from one shared, already-absorbed chaining state — the
///    solver's shared-midstate nonce sweep. Every lane compresses its
///    own pre-padded final block(s) and receives its chaining words
///    (host order, not serialized). SHA-NI interleaves two streams
///    round by round (W=2) to hide sha256rnds2 latency; AVX2 (W=8) and
///    AVX-512 (W=16) put one message per 32-bit SIMD lane and also
///    offer a whole-message form (hashW: equal-length messages,
///    padding included) for hash_many. The scalar and ARMv8-CE
///    backends finish one lane per call through their compress kernel.

#include <array>
#include <cstddef>
#include <cstdint>

namespace powai::crypto::detail {

/// Folds \p n 64-byte blocks into \p state (8 words). The portable
/// reference implementation; always available.
void compress_generic(std::uint32_t* state, const std::uint8_t* blocks,
                      std::size_t n);

// x86 runtime dispatch is only wired up for the GCC/Clang family, which
// supports per-function target attributes (no special compile flags
// needed for the rest of the translation unit).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define POWAI_SHA256_X86_DISPATCH 1

/// CPUID: SHA extensions plus the SSE levels the kernel needs.
[[nodiscard]] bool cpu_supports_shani();

/// CPUID + XGETBV: AVX2 with OS-enabled YMM state.
[[nodiscard]] bool cpu_supports_avx2();

/// CPUID + XGETBV: AVX-512 F+BW with OS-enabled ZMM/opmask state.
[[nodiscard]] bool cpu_supports_avx512();

/// SHA-NI compression (same contract as compress_generic). Only call
/// when cpu_supports_shani() is true.
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t n);

/// Finishes two messages sharing one chaining state, interleaved round
/// by round: both lanes start from \p state (8 words, the midstate of a
/// common prefix, converted to ABEF/CDGH once) and each compresses its
/// own \p blocks_per_lane pre-padded 64-byte blocks (blocks[l] points
/// at lane l's contiguous final blocks), producing out[l] = the lane's
/// chaining words. Same contract as finish8_avx2 at width 2. The two
/// streams' states and message schedules take 12 of the 16 xmm
/// registers, so the rounds run without spills (4 streams would not
/// fit). Only call when cpu_supports_shani() is true.
void finish2_shani(const std::uint32_t state[8],
                   const std::uint8_t* const blocks[2],
                   std::size_t blocks_per_lane,
                   std::array<std::uint32_t, 8>* out);

/// Hashes eight equal-length messages in AVX2 lanes, producing
/// out[i] = SHA-256(msgs[i]) for i in [0, 8). Handles padding
/// internally. Only call when cpu_supports_avx2() is true.
void hash8_avx2(const std::uint8_t* const msgs[8], std::size_t len,
                std::uint8_t (*out)[32]);

/// Finishes eight messages sharing one chaining state: every lane
/// starts from \p state (8 words, the midstate of a common prefix) and
/// compresses its own \p blocks_per_lane pre-padded 64-byte blocks
/// (blocks[l] points at lane l's contiguous final blocks), producing
/// out[l] = the lane's chaining words. Padding and the bit-length
/// trailer must already be laid out in the blocks — this kernel only
/// compresses. Only call when cpu_supports_avx2() is true.
void finish8_avx2(const std::uint32_t state[8],
                  const std::uint8_t* const blocks[8],
                  std::size_t blocks_per_lane,
                  std::array<std::uint32_t, 8>* out);

/// 16-lane AVX-512 analogues of hash8_avx2 / finish8_avx2. Only call
/// when cpu_supports_avx512() is true.
void hash16_avx512(const std::uint8_t* const msgs[16], std::size_t len,
                   std::uint8_t (*out)[32]);
void finish16_avx512(const std::uint32_t state[8],
                     const std::uint8_t* const blocks[16],
                     std::size_t blocks_per_lane,
                     std::array<std::uint32_t, 8>* out);
#endif  // x86 dispatch

// ARMv8 runtime dispatch (AArch64 crypto extensions). The kernel is
// fenced behind a per-file feature pragma in sha256_armv8.cpp; the
// probe consults HWCAP so a build run on a CPU without the SHA-2
// extension never reaches it.
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define POWAI_SHA256_ARM_DISPATCH 1

/// getauxval(AT_HWCAP) & HWCAP_SHA2 on Linux; Apple arm64 always has
/// the SHA-2 extension.
[[nodiscard]] bool cpu_supports_armv8_sha2();

/// ARMv8-CE compression (vsha256hq / vsha256h2q; same contract as
/// compress_generic). Only call when cpu_supports_armv8_sha2() is true.
void compress_armv8(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t n);
#endif  // arm dispatch

}  // namespace powai::crypto::detail
