#include "pow/generator.hpp"

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

common::Bytes PuzzleGenerator::derive_mac_key(common::BytesView master_secret) {
  if (master_secret.empty()) {
    throw std::invalid_argument("derive_mac_key: empty master secret");
  }
  return crypto::derive_key(master_secret, common::bytes_of("mac"), 32);
}

crypto::Digest PuzzleGenerator::compute_auth(common::BytesView mac_key,
                                             const Puzzle& puzzle) {
  return compute_auth(mac_key, puzzle.prefix_bytes(), puzzle.puzzle_id);
}

crypto::Digest PuzzleGenerator::compute_auth(common::BytesView mac_key,
                                             common::BytesView prefix,
                                             std::uint64_t puzzle_id) {
  // Streams mac_input() = prefix || u64be(id) without materializing it.
  crypto::HmacSha256 mac(mac_key);
  mac.update(prefix);
  std::uint8_t id_be[8];
  common::store_u64be(id_be, puzzle_id);
  mac.update(common::BytesView(id_be, 8));
  return mac.finish();
}

std::uint64_t PuzzleGenerator::derive_puzzle_id(
    const std::string& client_ip, std::uint64_t request_key) const {
  // Fixed-width prefix (domain || key) before the variable-length ip, so
  // no two distinct (key, ip) pairs serialize identically.
  common::Bytes material;
  material.reserve(9 + client_ip.size());
  material.push_back(kKeyedDomain);
  common::append_u64be(material, request_key);
  common::append(material, common::bytes_of(client_ip));
  return crypto::siphash24(id_key_, material);
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
