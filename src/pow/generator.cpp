#include "pow/generator.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace powai::pow {

namespace {
constexpr std::size_t kSeedBytes = 32;

/// Domain byte of the puzzle-id PRF input (wire-stable: changing it
/// changes every issued id and seed).
constexpr std::uint8_t kKeyedDomain = 0x01;
}  // namespace

PuzzleGenerator::PuzzleGenerator(const common::Clock& clock,
                                 common::BytesView master_secret)
    : clock_(&clock),
      seed_streams_(crypto::derive_key(master_secret, common::bytes_of("seed"), 32),
                    common::bytes_of("powai-seed-drbg")),
      mac_key_(derive_mac_key(master_secret)) {
  if (master_secret.empty()) {
    throw std::invalid_argument("PuzzleGenerator: empty master secret");
  }
  const common::Bytes id_key =
      crypto::derive_key(master_secret, common::bytes_of("puzzle-id"), 16);
  std::memcpy(id_key_.data(), id_key.data(), id_key_.size());
}

crypto::HmacKey PuzzleGenerator::derive_mac_key(
    common::BytesView master_secret) {
  if (master_secret.empty()) {
    throw std::invalid_argument("derive_mac_key: empty master secret");
  }
  return crypto::HmacKey(
      crypto::derive_key(master_secret, common::bytes_of("mac"), 32));
}

crypto::Digest PuzzleGenerator::compute_auth(const crypto::HmacKey& mac_key,
                                             const Puzzle& puzzle) {
  return compute_auth(mac_key, puzzle.prefix_bytes(), puzzle.puzzle_id);
}

crypto::Digest PuzzleGenerator::compute_auth(const crypto::HmacKey& mac_key,
                                             common::BytesView prefix,
                                             std::uint64_t puzzle_id) {
  // mac_input() = prefix || u64be(id), without materializing it.
  std::uint8_t id_be[8];
  common::store_u64be(id_be, puzzle_id);
  return crypto::hmac_sha256(mac_key, prefix, common::BytesView(id_be, 8));
}

std::uint64_t PuzzleGenerator::derive_puzzle_id(
    const std::string& client_ip, std::uint64_t request_key) const {
  // Fixed-width prefix (domain || key) before the variable-length ip, so
  // no two distinct (key, ip) pairs serialize identically. Built on the
  // stack; only an ip longer than any textual address takes the heap.
  constexpr std::size_t kHead = 9;
  constexpr std::size_t kInlineIp = 64;
  std::array<std::uint8_t, kHead + kInlineIp> inline_buf{};
  common::Bytes heap_buf;
  const std::size_t len = kHead + client_ip.size();
  std::uint8_t* material = inline_buf.data();
  if (client_ip.size() > kInlineIp) {
    heap_buf.resize(len);
    material = heap_buf.data();
  }
  material[0] = kKeyedDomain;
  common::store_u64be(material + 1, request_key);
  std::memcpy(material + kHead, client_ip.data(), client_ip.size());
  return crypto::siphash24(id_key_, common::BytesView(material, len));
}

Puzzle PuzzleGenerator::issue_with_id(std::uint64_t puzzle_id,
                                      const std::string& client_ip,
                                      unsigned difficulty) {
  Puzzle p;
  p.puzzle_id = puzzle_id;
  // Pure per-id derivation: no chain state, no lock — the seed depends
  // only on (master_secret, puzzle_id), so concurrent issuers cannot
  // perturb each other's puzzles.
  p.seed = seed_streams_.generate(p.puzzle_id, kSeedBytes);
  p.issued_at_ms = common::to_millis(clock_->now());
  p.difficulty = difficulty;
  p.client_binding = client_ip;
  p.auth = compute_auth(mac_key_, p);
  issued_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

Puzzle PuzzleGenerator::issue_for(const std::string& client_ip,
                                  std::uint64_t request_key,
                                  unsigned difficulty) {
  return issue_with_id(derive_puzzle_id(client_ip, request_key), client_ip,
                       difficulty);
}

}  // namespace powai::pow
