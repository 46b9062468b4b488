#include "crypto/sha256.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <numeric>
#include <stdexcept>
#include <string>

#include "crypto/sha256_dispatch.hpp"

namespace powai::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
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

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

/// One byte swap and one 4-byte store. Byte-by-byte stores of all eight
/// words get SLP-vectorized by GCC into ~150 SSE2 shuffle instructions
/// that re-read the state straight after the kernel's 16-byte stores,
/// which cost about as much as a compression.
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = (v >> 24) | ((v >> 8) & 0x0000ff00u) | ((v << 8) & 0x00ff0000u) |
        (v << 24);
  }
  std::memcpy(p, &v, sizeof(v));
}

/// Block-compression entry used for single-stream hashing under the
/// active backend (the AVX2 backend is multi-buffer only, so it shares
/// the scalar path here).
using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

constexpr Sha256Backend kAllBackends[] = {
    Sha256Backend::kGeneric, Sha256Backend::kShaNi, Sha256Backend::kAvx2,
    Sha256Backend::kAvx512, Sha256Backend::kArmv8, Sha256Backend::kShaNiAvx512};

bool backend_supported(Sha256Backend b) {
  switch (b) {
    case Sha256Backend::kGeneric:
      return true;
#ifdef POWAI_SHA256_X86_DISPATCH
    case Sha256Backend::kShaNi:
      return detail::cpu_supports_shani();
    case Sha256Backend::kAvx2:
      return detail::cpu_supports_avx2();
    case Sha256Backend::kAvx512:
      return detail::cpu_supports_avx512();
    case Sha256Backend::kShaNiAvx512:
      return detail::cpu_supports_shani() && detail::cpu_supports_avx512();
#endif
#ifdef POWAI_SHA256_ARM_DISPATCH
    case Sha256Backend::kArmv8:
      return detail::cpu_supports_armv8_sha2();
#endif
    default:
      return false;
  }
}

/// Auto order: SHA-NI paired with AVX-512 first (SHA-NI single streams,
/// 16-lane sweeps), then the crypto extensions alone (SHA-NI / ARMv8-CE
/// win every one-at-a-time hash — issuance, HMAC, verification — and
/// SHA-NI runs 2-way interleaved sweeps), then the multi-lane backends
/// widest first (they pay on hash_many and lane sweeps and fall back to
/// the scalar reference for single streams).
Sha256Backend best_backend() {
  if (backend_supported(Sha256Backend::kShaNiAvx512)) {
    return Sha256Backend::kShaNiAvx512;
  }
  if (backend_supported(Sha256Backend::kShaNi)) return Sha256Backend::kShaNi;
  if (backend_supported(Sha256Backend::kArmv8)) return Sha256Backend::kArmv8;
  if (backend_supported(Sha256Backend::kAvx512)) return Sha256Backend::kAvx512;
  if (backend_supported(Sha256Backend::kAvx2)) return Sha256Backend::kAvx2;
  return Sha256Backend::kGeneric;
}

/// Startup choice: POWAI_SHA256_BACKEND, resolved by backend_from_name.
/// Unset behaves like "auto"; unknown or unsupported values throw from
/// the first hashing call so a mis-typed or mis-targeted override is a
/// loud failure instead of a silently slower (or faster) run.
Sha256Backend initial_backend() {
  const char* env = std::getenv("POWAI_SHA256_BACKEND");
  return Sha256::backend_from_name(env == nullptr ? std::string_view() : env);
}

std::atomic<std::uint8_t>& backend_slot() {
  static std::atomic<std::uint8_t> slot{
      static_cast<std::uint8_t>(initial_backend())};
  return slot;
}

CompressFn active_compress() {
  switch (static_cast<Sha256Backend>(
      backend_slot().load(std::memory_order_relaxed))) {
#ifdef POWAI_SHA256_X86_DISPATCH
    case Sha256Backend::kShaNi:
    case Sha256Backend::kShaNiAvx512:
      return &detail::compress_shani;
#endif
#ifdef POWAI_SHA256_ARM_DISPATCH
    case Sha256Backend::kArmv8:
      return &detail::compress_armv8;
#endif
    default:
      return &detail::compress_generic;
  }
}

/// Finishes one lane through a single-stream compression: the lane
/// kernel of the backends without multi-stream finish.
template <CompressFn Compress>
void finish1(const std::uint32_t* state, const std::uint8_t* const* blocks,
             std::size_t n, Sha256State* out) {
  std::copy_n(state, 8, out[0].begin());
  Compress(out[0].data(), blocks[0], n);
}

/// A backend's lane kernels: W shared-midstate finishes per call (every
/// backend; the solver's nonce sweep) and, on the multi-buffer
/// backends, W whole equal-length messages per call (hash_many).
struct LaneKernel {
  std::size_t width = 1;
  Sha256LaneSweep::FinishFn finish_lanes = nullptr;
  void (*hash_lanes)(const std::uint8_t* const*, std::size_t,
                     std::uint8_t (*)[32]) = nullptr;
};

/// Widest lane width any backend offers — sizes stack batches.
constexpr std::size_t kMaxLanes = Sha256LaneSweep::kMaxLanes;

const LaneKernel& active_lane_kernel() {
  static constexpr LaneKernel kGenericKernel{
      1, &finish1<&detail::compress_generic>, nullptr};
  switch (static_cast<Sha256Backend>(
      backend_slot().load(std::memory_order_relaxed))) {
#ifdef POWAI_SHA256_X86_DISPATCH
    case Sha256Backend::kShaNi: {
      static constexpr LaneKernel kShaNiKernel{2, &detail::finish2_shani,
                                               nullptr};
      return kShaNiKernel;
    }
    case Sha256Backend::kAvx2: {
      static constexpr LaneKernel kAvx2Kernel{8, &detail::finish8_avx2,
                                              &detail::hash8_avx2};
      return kAvx2Kernel;
    }
    case Sha256Backend::kAvx512:
    case Sha256Backend::kShaNiAvx512: {
      static constexpr LaneKernel kAvx512Kernel{16, &detail::finish16_avx512,
                                                &detail::hash16_avx512};
      return kAvx512Kernel;
    }
#endif
#ifdef POWAI_SHA256_ARM_DISPATCH
    case Sha256Backend::kArmv8: {
      static constexpr LaneKernel kArmv8Kernel{
          1, &finish1<&detail::compress_armv8>, nullptr};
      return kArmv8Kernel;
    }
#endif
    default:
      return kGenericKernel;
  }
}

}  // namespace

namespace detail {

void compress_generic(std::uint32_t* state, const std::uint8_t* blocks,
                      std::size_t n) {
  for (; n > 0; --n, blocks += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace detail

Sha256Backend Sha256::backend() {
  return static_cast<Sha256Backend>(
      backend_slot().load(std::memory_order_relaxed));
}

bool Sha256::set_backend(Sha256Backend b) {
  if (!backend_supported(b)) return false;
  backend_slot().store(static_cast<std::uint8_t>(b),
                       std::memory_order_relaxed);
  return true;
}

std::vector<Sha256Backend> Sha256::supported_backends() {
  std::vector<Sha256Backend> out;
  for (Sha256Backend b : kAllBackends) {
    if (backend_supported(b)) out.push_back(b);
  }
  return out;
}

std::string_view Sha256::backend_name(Sha256Backend b) {
  switch (b) {
    case Sha256Backend::kGeneric:
      return "generic";
    case Sha256Backend::kShaNi:
      return "shani";
    case Sha256Backend::kAvx2:
      return "avx2";
    case Sha256Backend::kAvx512:
      return "avx512";
    case Sha256Backend::kArmv8:
      return "armv8";
    case Sha256Backend::kShaNiAvx512:
      return "shani_avx512";
  }
  return "unknown";
}

Sha256Backend Sha256::backend_from_name(std::string_view name) {
  if (name.empty() || name == "auto") return best_backend();
  for (Sha256Backend b : kAllBackends) {
    if (name != backend_name(b)) continue;
    if (!backend_supported(b)) {
      std::string supported = "auto";
      for (Sha256Backend s : supported_backends()) {
        supported += ", ";
        supported += backend_name(s);
      }
      throw std::runtime_error(
          "POWAI_SHA256_BACKEND=" + std::string(name) +
          " is not supported on this CPU (supported here: " + supported + ")");
    }
    return b;
  }
  throw std::runtime_error(
      "POWAI_SHA256_BACKEND=" + std::string(name) +
      " is not a known backend (accepted values: auto, generic, shani, "
      "avx2, avx512, armv8, shani_avx512)");
}

std::size_t Sha256::lane_width(Sha256Backend b) {
  switch (b) {
    case Sha256Backend::kShaNi:
      return 2;
    case Sha256Backend::kAvx2:
      return 8;
    case Sha256Backend::kAvx512:
    case Sha256Backend::kShaNiAvx512:
      return 16;
    default:
      return 1;
  }
}

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
  finished_ = false;
}

void Sha256::update(common::BytesView data) {
  if (finished_) throw std::logic_error("Sha256::update after finish");
  // An empty view may carry a null pointer, and memcpy from null is
  // undefined even for zero bytes.
  if (data.empty()) return;
  const CompressFn compress = active_compress();
  total_len_ += data.size();
  std::size_t offset = 0;

  if (buffer_len_ > 0) {
    const std::size_t need = kBlockSize - buffer_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }

  // All remaining full blocks in one backend call.
  const std::size_t full = (data.size() - offset) / kBlockSize;
  if (full > 0) {
    compress(state_.data(), data.data() + offset, full);
    offset += full * kBlockSize;
  }

  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Digest Sha256::finish() {
  if (finished_) throw std::logic_error("Sha256::finish called twice");
  finished_ = true;

  const CompressFn compress = active_compress();
  const std::uint64_t bit_len = total_len_ * 8;

  // Padding: 0x80, zeros, 64-bit big-endian bit length.
  std::uint8_t pad[kBlockSize * 2] = {};
  std::size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  const std::size_t rem = (buffer_len_ + 1) % kBlockSize;
  const std::size_t zeros = (rem <= 56) ? (56 - rem) : (56 + kBlockSize - rem);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }

  // Feed padding through the normal path (bypassing the total_len_
  // accounting, which is already frozen).
  std::size_t offset = 0;
  while (offset < pad_len) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, pad_len - offset);
    std::memcpy(buffer_.data() + buffer_len_, pad + offset, take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }

  return to_digest(state_);
}

Digest Sha256::hash(common::BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest Sha256::hash2(common::BytesView a, common::BytesView b) {
  Sha256 h;
  h.update(a);
  h.update(b);
  return h.finish();
}

Sha256Midstate Sha256::precompute(common::BytesView prefix) {
  Sha256Midstate ms;
  ms.state = kInitialState;
  const std::size_t full = prefix.size() / kBlockSize;
  if (full > 0) {
    active_compress()(ms.state.data(), prefix.data(), full);
  }
  ms.absorbed = static_cast<std::uint64_t>(full) * kBlockSize;
  return ms;
}

Digest Sha256::finish_with_suffix(const Sha256Midstate& midstate,
                                  common::BytesView tail,
                                  common::BytesView suffix) {
  const CompressFn compress = active_compress();
  Sha256State state = midstate.state;
  const std::uint64_t bit_len =
      (midstate.absorbed + tail.size() + suffix.size()) * 8;

  // Stream tail || suffix: whole blocks compress straight from the
  // input, the remainder (< 64 bytes) gathers in buf.
  std::uint8_t buf[2 * kBlockSize];
  std::size_t buffered = 0;
  for (common::BytesView part : {tail, suffix}) {
    if (part.empty()) continue;  // an empty view may carry a null pointer
    if (buffered > 0) {
      const std::size_t take = std::min(kBlockSize - buffered, part.size());
      std::memcpy(buf + buffered, part.data(), take);
      buffered += take;
      part = part.subspan(take);
      if (buffered == kBlockSize) {
        compress(state.data(), buf, 1);
        buffered = 0;
      }
    }
    const std::size_t full = part.size() / kBlockSize;
    if (full > 0) {
      compress(state.data(), part.data(), full);
      part = part.subspan(full * kBlockSize);
    }
    if (!part.empty()) {
      std::memcpy(buf + buffered, part.data(), part.size());
      buffered += part.size();
    }
  }

  // Padding: 0x80, zeros up to the trailer, 64-bit big-endian bit length.
  const std::size_t padded = (buffered + 9 <= kBlockSize) ? kBlockSize
                                                           : 2 * kBlockSize;
  buf[buffered] = 0x80;
  std::memset(buf + buffered + 1, 0, padded - 8 - (buffered + 1));
  common::store_u64be(buf + padded - 8, bit_len);
  compress(state.data(), buf, padded / kBlockSize);
  return to_digest(state);
}

Sha256State Sha256::finish_blocks(const Sha256Midstate& midstate,
                                  const std::uint8_t* blocks, std::size_t n) {
  Sha256State state = midstate.state;
  active_compress()(state.data(), blocks, n);
  return state;
}

Sha256FinalBlocks Sha256FinalBlocks::make(const Sha256Midstate& midstate,
                                          common::BytesView tail,
                                          std::size_t suffix_len) {
  if (!fits(tail.size(), suffix_len)) {
    throw std::invalid_argument(
        "Sha256FinalBlocks: tail + suffix + padding exceed two blocks");
  }
  Sha256FinalBlocks final;
  const std::size_t mlen = tail.size() + suffix_len;
  final.size = (mlen + 9 <= Sha256::kBlockSize) ? Sha256::kBlockSize
                                                : 2 * Sha256::kBlockSize;
  final.hole = tail.size();
  if (!tail.empty()) std::memcpy(final.bytes.data(), tail.data(), tail.size());
  final.bytes[mlen] = 0x80;  // bytes{} already zeroed the hole and the gap
  common::store_u64be(final.bytes.data() + final.size - 8,
                      (midstate.absorbed + mlen) * 8);
  return final;
}

Sha256LaneSweep::Sha256LaneSweep(const Sha256FinalBlocks& final)
    : blocks_(final.blocks()), hole_(final.hole) {
  const LaneKernel& kernel = active_lane_kernel();
  finish_ = kernel.finish_lanes;
  width_ = kernel.width;
  for (std::size_t l = 0; l < width_; ++l) {
    std::memcpy(lanes_[l], final.bytes.data(), final.size);
    lane_ptrs_[l] = lanes_[l];
  }
}

void Sha256::hash_many(std::span<const common::BytesView> messages,
                       std::span<Digest> out) {
  if (messages.size() != out.size()) {
    throw std::invalid_argument("Sha256::hash_many: span size mismatch");
  }
  const std::size_t n = messages.size();
  if (n == 0) return;

  const LaneKernel& kernel = active_lane_kernel();
  if (kernel.hash_lanes != nullptr && n >= 4) {
    const std::size_t width = kernel.width;
    // Group equal-length messages into width-wide lanes. Order by
    // length (stable, so equal-length runs keep batch order), then
    // sweep runs.
    std::vector<std::uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return messages[a].size() < messages[b].size();
                     });
    std::size_t run_start = 0;
    while (run_start < n) {
      const std::size_t len = messages[idx[run_start]].size();
      std::size_t run_end = run_start + 1;
      while (run_end < n && messages[idx[run_end]].size() == len) ++run_end;
      for (std::size_t base = run_start; base < run_end; base += width) {
        const std::size_t lanes = std::min(width, run_end - base);
        if (lanes >= width / 2) {
          // Fill idle lanes by repeating the first message; their
          // outputs are discarded.
          const std::uint8_t* ptrs[kMaxLanes];
          std::uint8_t digests[kMaxLanes][32];
          for (std::size_t l = 0; l < width; ++l) {
            ptrs[l] = messages[idx[base + std::min(l, lanes - 1)]].data();
          }
          kernel.hash_lanes(ptrs, len, digests);
          for (std::size_t l = 0; l < lanes; ++l) {
            std::memcpy(out[idx[base + l]].data(), digests[l], 32);
          }
        } else {
          for (std::size_t l = 0; l < lanes; ++l) {
            out[idx[base + l]] = hash(messages[idx[base + l]]);
          }
        }
      }
      run_start = run_end;
    }
    return;
  }

  // Backends without a whole-message lane kernel hash one message at a
  // time.
  for (std::size_t i = 0; i < n; ++i) out[i] = hash(messages[i]);
}

void Sha256::finish_many_with_suffix(const Sha256Midstate& midstate,
                                     common::BytesView tail,
                                     std::span<const common::BytesView> suffixes,
                                     std::span<Digest> out) {
  if (suffixes.size() != out.size()) {
    throw std::invalid_argument(
        "Sha256::finish_many_with_suffix: span size mismatch");
  }
  const std::size_t n = suffixes.size();
  if (n == 0) return;
  const std::size_t slen = suffixes[0].size();
  for (const common::BytesView& s : suffixes) {
    if (s.size() != slen) {
      throw std::invalid_argument(
          "Sha256::finish_many_with_suffix: suffixes must be equal length");
    }
  }

  if (!Sha256FinalBlocks::fits(tail.size(), slen)) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = finish_with_suffix(midstate, tail, suffixes[i]);
    }
    return;
  }

  // The solver's path: one layout, one sweep, only the suffix hole
  // rewritten per lane. A trailing partial group runs the full kernel
  // and keeps only its filled lanes.
  Sha256LaneSweep sweep(Sha256FinalBlocks::make(midstate, tail, slen));
  const std::size_t width = sweep.width();
  for (std::size_t base = 0; base < n; base += width) {
    const std::size_t lanes = std::min(width, n - base);
    if (slen > 0) {
      for (std::size_t l = 0; l < lanes; ++l) {
        std::memcpy(sweep.hole(l), suffixes[base + l].data(), slen);
      }
    }
    sweep.run(midstate);
    for (std::size_t l = 0; l < lanes; ++l) {
      out[base + l] = to_digest(sweep.state(l));
    }
  }
}

Digest to_digest(const Sha256State& state) {
  Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state[i]);
  return digest;
}

unsigned leading_zero_bits(const Digest& digest) {
  unsigned bits = 0;
  for (std::uint8_t byte : digest) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    bits += static_cast<unsigned>(std::countl_zero(byte));
    break;
  }
  return bits;
}

bool meets_difficulty(const Digest& digest, unsigned d) {
  return leading_zero_bits(digest) >= d;
}

bool constant_time_equal(common::BytesView a, common::BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace powai::crypto
