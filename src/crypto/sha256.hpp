#pragma once
/// \file sha256.hpp
/// From-scratch SHA-256 (FIPS 180-4). This is the hash underlying the
/// paper's PoW puzzles: a solution is a nonce such that
/// SHA-256(puzzle-string || nonce) has a prefix of `d` zero bits.
///
/// Three interfaces, from general to hot-path:
///  - incremental (init/update/final) plus one-shot helpers;
///  - a midstate API (precompute / finish_with_suffix) that absorbs an
///    invariant prefix once and then per-suffix compresses only the
///    final block(s); for a family of equal-length suffixes
///    (the solver's nonces) Sha256FinalBlocks lays the padded final
///    block(s) out once and Sha256LaneSweep finishes them a lane group
///    at a time, writing only the suffix bytes per message;
///  - hash_many, which hashes N independent messages at once, in SIMD
///    lanes when the hardware has them.
///
/// The compression function is runtime-dispatched: a generic scalar
/// backend (the reference all others are tested against), single-stream
/// hardware backends (x86 SHA-NI, ARMv8 crypto extensions), and
/// multi-buffer lane backends (8-way AVX2, 16-way AVX-512) for
/// hash_many. Every backend has a lane finish kernel for the solver's
/// shared-midstate nonce sweeps: 16 lanes on AVX-512, 8 on AVX2, 2 on
/// SHA-NI (two streams interleaved round by round) and 1 on generic
/// and ARMv8-CE. One backend pairs two kernels: shani_avx512 hashes
/// single streams on SHA-NI and sweeps lanes on AVX-512, so each use
/// site gets the faster kernel. The best supported backend is selected
/// once at startup; the environment variable POWAI_SHA256_BACKEND
/// (auto|generic|shani|avx2|avx512|armv8|shani_avx512) overrides the
/// choice — an unknown or unsupported-on-this-CPU value fails loudly
/// with std::runtime_error — and tests can force one programmatically
/// via set_backend().

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace powai::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Which compression-function implementation services hash calls.
enum class Sha256Backend : std::uint8_t {
  kGeneric = 0,  ///< portable scalar (always available; the reference)
  kShaNi = 1,    ///< x86 SHA extensions; 2-way interleaved lane sweeps
  kAvx2 = 2,     ///< 8-lane AVX2 multi-buffer for lane sweeps; scalar otherwise
  kAvx512 = 3,   ///< 16-lane AVX-512 multi-buffer for lane sweeps; scalar otherwise
  kArmv8 = 4,    ///< ARMv8 crypto extensions, one message at a time
  /// SHA-NI for every single-stream hash (issuance, HMAC, DRBG, verify,
  /// finish_blocks); the 16-lane AVX-512 kernels for lane sweeps and
  /// hash_many. Needs both feature sets; auto picks it first.
  kShaNiAvx512 = 5,
};

/// Chaining state captured after absorbing the full 64-byte blocks of a
/// message prefix. Plain value type: copy it freely, reuse it from any
/// number of threads. Only meaningful with the finish_with_suffix that
/// shares its contract: `absorbed` is a multiple of the block size and
/// the unabsorbed prefix tail is re-supplied per call.
struct Sha256Midstate final {
  std::array<std::uint32_t, 8> state{};
  std::uint64_t absorbed = 0;  ///< prefix bytes folded in (multiple of 64)
};

/// The eight chaining words of a finished hash: the digest before its
/// big-endian serialization (to_digest). Difficulty tests read them
/// directly.
using Sha256State = std::array<std::uint32_t, 8>;

/// The padded final block(s) of SHA-256(prefix || suffix) for one
/// prefix and one suffix length, laid out once: tail ‖ suffix hole ‖
/// 0x80 ‖ zeros ‖ 64-bit big-endian bit length. Messages of the family
/// differ only in the hole, so a sweep copies the layout into each lane
/// once and then writes just the suffix bytes per message. Fits when
/// tail + suffix + 9 <= 128 bytes — always true for a puzzle prefix's
/// tail (< 64 bytes) and an 8-byte nonce. Plain value, no allocation.
struct Sha256FinalBlocks final {
  static constexpr std::size_t kMaxSize = 128;

  std::array<std::uint8_t, kMaxSize> bytes{};
  std::size_t size = 0;  ///< padded length: 64 or 128
  std::size_t hole = 0;  ///< offset of the suffix hole (the tail length)

  [[nodiscard]] std::size_t blocks() const { return size / 64; }

  /// Does tail || suffix plus padding fit in two blocks?
  [[nodiscard]] static bool fits(std::size_t tail_len, std::size_t suffix_len) {
    return tail_len + suffix_len + 9 <= kMaxSize;
  }

  /// The layout for SHA-256(prefix || suffix) with |suffix| =
  /// \p suffix_len, where \p midstate = precompute(prefix) and \p tail
  /// is prefix's unabsorbed remainder. The hole is left zeroed. Throws
  /// std::invalid_argument when !fits(tail.size(), suffix_len).
  [[nodiscard]] static Sha256FinalBlocks make(const Sha256Midstate& midstate,
                                              common::BytesView tail,
                                              std::size_t suffix_len);
};

/// Incremental SHA-256. Usage: construct, update() any number of times,
/// finish() once. A finished hasher can be reset() and reused.
class Sha256 final {
 public:
  static constexpr std::size_t kBlockSize = 64;
  static constexpr std::size_t kDigestSize = 32;

  Sha256() { reset(); }

  /// Restores the initial state (discards buffered input).
  void reset();

  /// Absorbs more message bytes.
  void update(common::BytesView data);

  /// Pads, finalizes, and returns the digest. The hasher must be reset()
  /// before further use; calling update() after finish() without reset()
  /// throws std::logic_error.
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(common::BytesView data);

  /// One-shot over the concatenation of two buffers (no temporary).
  [[nodiscard]] static Digest hash2(common::BytesView a, common::BytesView b);

  /// Absorbs the full 64-byte blocks of \p prefix once. The remaining
  /// `prefix.size() % 64` bytes (the tail, `prefix.subspan(m.absorbed)`)
  /// are NOT folded in — pass them to every finish_with_suffix call.
  [[nodiscard]] static Sha256Midstate precompute(common::BytesView prefix);

  /// Completes SHA-256(prefix || suffix) from a midstate: compresses
  /// only `tail || suffix || padding`. With a short tail and suffix
  /// (the solver: tail < 64, suffix = 8-byte nonce) that is a single
  /// compression per call, allocation-free. Thread-safe; the midstate
  /// is read-only.
  [[nodiscard]] static Digest finish_with_suffix(const Sha256Midstate& midstate,
                                                 common::BytesView tail,
                                                 common::BytesView suffix);

  /// Chaining words after folding the \p n pre-padded blocks at
  /// \p blocks into a copy of \p midstate through the active backend's
  /// single-stream compression: one finish of a Sha256FinalBlocks
  /// layout whose hole has been written (a copy of final.bytes, n =
  /// final.blocks()).
  [[nodiscard]] static Sha256State finish_blocks(const Sha256Midstate& midstate,
                                                 const std::uint8_t* blocks,
                                                 std::size_t n);

  /// Hashes N independent messages: out[i] = hash(messages[i]). Equal-
  /// length messages are swept in SIMD lanes when the active backend
  /// supports it (mixed lengths are grouped internally); the result is
  /// bit-identical to N scalar hash() calls on every backend. Throws
  /// std::invalid_argument when the spans' sizes differ.
  static void hash_many(std::span<const common::BytesView> messages,
                        std::span<Digest> out);

  /// Completes SHA-256(prefix || suffixes[i]) for N equal-length
  /// suffixes from one shared midstate: out[i] =
  /// finish_with_suffix(midstate, tail, suffixes[i]), bit-identical on
  /// every backend. When the final block(s) fit two blocks
  /// (Sha256FinalBlocks::fits) it is a thin wrapper over the solver's
  /// path: one Sha256FinalBlocks layout and one Sha256LaneSweep, so the
  /// suffixes are finished lane_width() at a time; longer shapes take
  /// the scalar finish. Allocation-free. Throws std::invalid_argument
  /// when the spans' sizes differ or the suffix lengths are unequal.
  static void finish_many_with_suffix(
      const Sha256Midstate& midstate, common::BytesView tail,
      std::span<const common::BytesView> suffixes, std::span<Digest> out);

  /// Lanes finished per lane-kernel call under backend \p b: 16 for
  /// AVX-512 and SHA-NI+AVX-512, 8 for AVX2, 2 for SHA-NI (two
  /// interleaved streams), 1 for generic and ARMv8-CE. Callers batching
  /// work for finish_many_with_suffix / Sha256LaneSweep should hand
  /// over multiples of it.
  [[nodiscard]] static std::size_t lane_width(Sha256Backend b);

  /// The backend servicing calls right now.
  [[nodiscard]] static Sha256Backend backend();

  /// Forces a backend (tests, experiments). Returns false — and changes
  /// nothing — when this CPU cannot run \p b. Takes effect for
  /// subsequent calls process-wide.
  static bool set_backend(Sha256Backend b);

  /// Backends this CPU can run, kGeneric always included.
  [[nodiscard]] static std::vector<Sha256Backend> supported_backends();

  /// Stable lowercase name ("generic", "shani", "avx2", "avx512",
  /// "armv8", "shani_avx512").
  [[nodiscard]] static std::string_view backend_name(Sha256Backend b);

  /// Resolves a POWAI_SHA256_BACKEND-style value: "auto" (or empty)
  /// picks the best supported backend; a known name picks that backend,
  /// throwing std::runtime_error when this CPU cannot run it; anything
  /// else throws std::runtime_error naming the accepted values. This is
  /// exactly the startup environment-variable path, exposed so tests
  /// and tools share its behavior.
  [[nodiscard]] static Sha256Backend backend_from_name(std::string_view name);

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

/// A lane sweep over one Sha256FinalBlocks layout: construction
/// resolves the active backend's lane finish kernel once and copies the
/// layout into lane_width() lanes; after that each run() finishes every
/// lane from one shared midstate with no dispatch beyond one indirect
/// call. Callers write each lane's suffix through hole(l) and read the
/// result as chaining words (state(l)). Lives on the stack of one
/// sweep; not copyable (the lane pointers point into the object).
class Sha256LaneSweep final {
 public:
  /// Widest lane group any backend finishes (AVX-512).
  static constexpr std::size_t kMaxLanes = 16;

  explicit Sha256LaneSweep(const Sha256FinalBlocks& final);
  Sha256LaneSweep(const Sha256LaneSweep&) = delete;
  Sha256LaneSweep& operator=(const Sha256LaneSweep&) = delete;

  [[nodiscard]] std::size_t width() const { return width_; }

  /// Lane \p l's suffix hole (final.size - final.hole writable bytes).
  [[nodiscard]] std::uint8_t* hole(std::size_t l) { return lanes_[l] + hole_; }

  /// Finishes all width() lanes from \p midstate (whose precompute the
  /// layout was made for). A lane whose hole was not rewritten since
  /// the last run just repeats its previous message.
  void run(const Sha256Midstate& midstate) {
    finish_(midstate.state.data(), lane_ptrs_, blocks_, states_);
  }

  /// Lane \p l's chaining words from the last run().
  [[nodiscard]] const Sha256State& state(std::size_t l) const {
    return states_[l];
  }

  using FinishFn = void (*)(const std::uint32_t*, const std::uint8_t* const*,
                            std::size_t, Sha256State*);

 private:
  FinishFn finish_ = nullptr;
  std::size_t width_ = 1;
  std::size_t blocks_ = 1;
  std::size_t hole_ = 0;
  const std::uint8_t* lane_ptrs_[kMaxLanes] = {};
  Sha256State states_[kMaxLanes] = {};
  /// Lanes [0, width()) hold copies of the layout; the rest are unused.
  alignas(64) std::uint8_t lanes_[kMaxLanes][Sha256FinalBlocks::kMaxSize];
};

/// The big-endian serialization of chaining words: the digest.
[[nodiscard]] Digest to_digest(const Sha256State& state);

/// Counts leading zero bits of a digest — the PoW difficulty measure.
/// Returns 256 for the all-zero digest.
[[nodiscard]] unsigned leading_zero_bits(const Digest& digest);

/// True iff the digest meets difficulty \p d (>= d leading zero bits).
[[nodiscard]] bool meets_difficulty(const Digest& digest, unsigned d);

/// meets_difficulty on chaining words, without serializing: the digest's
/// bytes are the words big-endian in order, so its leading zero bits
/// are the words' leading zero bits. Equal to
/// meets_difficulty(to_digest(state), d) for every d.
[[nodiscard]] inline bool meets_difficulty(const Sha256State& state,
                                           unsigned d) {
  if (d > 256) return false;
  std::size_t i = 0;
  for (; d >= 32; d -= 32, ++i) {
    if (state[i] != 0) return false;
  }
  return d == 0 || (state[i] >> (32 - d)) == 0;
}

/// Constant-time equality for MAC/digest comparison.
[[nodiscard]] bool constant_time_equal(common::BytesView a, common::BytesView b);

}  // namespace powai::crypto
