#include "pow/puzzle.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string_view>

namespace powai::pow {

common::Bytes Puzzle::prefix_bytes() const {
  // "POWAI1|<seed hex>|<timestamp>|<difficulty>|<client ip>|", written
  // in place into one exact-size buffer.
  constexpr std::string_view kTag = "POWAI1|";
  constexpr char kHexDigits[] = "0123456789abcdef";
  char ts[24];
  const auto ts_end = std::to_chars(ts, ts + sizeof(ts), issued_at_ms).ptr;
  char diff[16];
  const auto diff_end = std::to_chars(diff, diff + sizeof(diff), difficulty).ptr;
  const std::size_t ts_len = static_cast<std::size_t>(ts_end - ts);
  const std::size_t diff_len = static_cast<std::size_t>(diff_end - diff);

  common::Bytes out(kTag.size() + 2 * seed.size() + ts_len + diff_len +
                    client_binding.size() + 4);
  std::uint8_t* p = out.data();
  const auto put = [&p](const char* text, std::size_t n) {
    std::memcpy(p, text, n);
    p += n;
  };
  put(kTag.data(), kTag.size());
  for (const std::uint8_t b : seed) {
    *p++ = static_cast<std::uint8_t>(kHexDigits[b >> 4]);
    *p++ = static_cast<std::uint8_t>(kHexDigits[b & 0x0f]);
  }
  *p++ = '|';
  put(ts, ts_len);
  *p++ = '|';
  put(diff, diff_len);
  *p++ = '|';
  put(client_binding.data(), client_binding.size());
  *p++ = '|';
  return out;
}

common::Bytes Puzzle::mac_input() const {
  common::Bytes out = prefix_bytes();
  common::append_u64be(out, puzzle_id);
  return out;
}

common::Bytes Puzzle::serialize() const {
  common::Bytes out;
  out.reserve(8 + 4 + seed.size() + 8 + 4 + 4 + client_binding.size() +
              auth.size());
  common::append_u64be(out, puzzle_id);
  common::append_u32be(out, static_cast<std::uint32_t>(seed.size()));
  common::append(out, seed);
  common::append_u64be(out, static_cast<std::uint64_t>(issued_at_ms));
  common::append_u32be(out, difficulty);
  common::append_u32be(out, static_cast<std::uint32_t>(client_binding.size()));
  common::append(out, common::bytes_of(client_binding));
  common::append(out, common::BytesView(auth.data(), auth.size()));
  return out;
}

std::optional<Puzzle> Puzzle::deserialize(common::BytesView data) {
  common::ByteReader reader(data);
  Puzzle p;
  const auto id = reader.read_u64be();
  if (!id) return std::nullopt;
  p.puzzle_id = *id;

  const auto seed_len = reader.read_u32be();
  if (!seed_len || *seed_len > 1024) return std::nullopt;
  auto seed = reader.read_bytes(*seed_len);
  if (!seed) return std::nullopt;
  p.seed = std::move(*seed);

  const auto ts = reader.read_u64be();
  if (!ts) return std::nullopt;
  p.issued_at_ms = static_cast<std::int64_t>(*ts);

  const auto diff = reader.read_u32be();
  if (!diff) return std::nullopt;
  p.difficulty = *diff;

  const auto binding_len = reader.read_u32be();
  if (!binding_len || *binding_len > 256) return std::nullopt;
  const auto binding = reader.read_bytes(*binding_len);
  if (!binding) return std::nullopt;
  p.client_binding = common::string_of(*binding);

  const auto mac = reader.read_bytes(p.auth.size());
  if (!mac) return std::nullopt;
  std::copy(mac->begin(), mac->end(), p.auth.begin());

  if (!reader.empty()) return std::nullopt;  // trailing garbage
  return p;
}

common::Bytes Solution::serialize() const {
  common::Bytes out;
  common::append_u64be(out, puzzle_id);
  common::append_u64be(out, nonce);
  return out;
}

std::optional<Solution> Solution::deserialize(common::BytesView data) {
  common::ByteReader reader(data);
  Solution s;
  const auto id = reader.read_u64be();
  const auto nonce = reader.read_u64be();
  if (!id || !nonce || !reader.empty()) return std::nullopt;
  s.puzzle_id = *id;
  s.nonce = *nonce;
  return s;
}

PuzzleContext::PuzzleContext(const Puzzle& puzzle)
    : prefix_(puzzle.prefix_bytes()),
      midstate_(crypto::Sha256::precompute(prefix_)),
      final_(crypto::Sha256FinalBlocks::make(
          midstate_, common::BytesView(prefix_).subspan(midstate_.absorbed),
          sizeof(std::uint64_t))),
      puzzle_id_(puzzle.puzzle_id),
      difficulty_(puzzle.difficulty) {}

crypto::Sha256State PuzzleContext::state_for(std::uint64_t nonce) const {
  std::uint8_t lane[crypto::Sha256FinalBlocks::kMaxSize];
  std::memcpy(lane, final_.bytes.data(), final_.size);
  common::store_u64be(lane + final_.hole, nonce);
  return crypto::Sha256::finish_blocks(midstate_, lane, final_.blocks());
}

crypto::Digest PuzzleContext::digest_for(std::uint64_t nonce) const {
  return crypto::to_digest(state_for(nonce));
}

bool PuzzleContext::check(std::uint64_t nonce) const {
  return crypto::meets_difficulty(state_for(nonce), difficulty_);
}

std::size_t PuzzleContext::check_many(std::uint64_t start, std::uint64_t stride,
                                      std::size_t count) const {
  crypto::Sha256LaneSweep sweep(final_);
  const std::size_t width = sweep.width();
  std::uint64_t nonce = start;
  for (std::size_t done = 0; done < count; done += width) {
    // A trailing partial group leaves its spare lanes on stale nonces;
    // their results are never read.
    const std::size_t lanes = std::min(width, count - done);
    for (std::size_t l = 0; l < lanes; ++l) {
      common::store_u64be(sweep.hole(l), nonce);
      nonce += stride;
    }
    sweep.run(midstate_);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (crypto::meets_difficulty(sweep.state(l), difficulty_)) {
        return done + l;
      }
    }
  }
  return count;
}

crypto::Digest solution_digest(const Puzzle& puzzle, std::uint64_t nonce) {
  return PuzzleContext(puzzle).digest_for(nonce);
}

bool is_valid_solution(const Puzzle& puzzle, std::uint64_t nonce) {
  return PuzzleContext(puzzle).check(nonce);
}

}  // namespace powai::pow
