#pragma once
/// \file protocol.hpp
/// Wire protocol for the seven-step exchange of Fig. 1:
///
///   client → server  Request     (1) HTTP request + observed features
///   server → client  Challenge   (4) puzzle to solve
///   client → server  Submission  (5) puzzle + claimed solution
///   server → client  Response    (7) resource, or an error code
///
/// The Submission echoes the full puzzle so the server stays stateless
/// between steps 4 and 5 (the puzzle is self-authenticating via its MAC).
/// All messages use a 1-byte type tag followed by length-prefixed fields.

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "features/feature_vector.hpp"
#include "pow/puzzle.hpp"

namespace powai::framework {

/// Message type tags (wire-stable).
enum class MessageType : std::uint8_t {
  kRequest = 1,
  kChallenge = 2,
  kSubmission = 3,
  kResponse = 4,
};

/// Step 1: the client's HTTP request. `features` models what a
/// server-side traffic observer extracts for this source IP; the schema
/// and its synthetic data stand in for the commercial threat-feed
/// attributes DAbR was trained on (see feature_vector.hpp and
/// synthetic.hpp).
struct Request final {
  std::string client_ip;
  std::string path = "/";
  features::FeatureVector features;
  std::uint64_t request_id = 0;  ///< client-chosen correlation id
  /// Absolute deadline in server sim-time milliseconds (0 = none set;
  /// the server substitutes arrival + `ServerConfig::default_deadline`).
  /// When that default is configured, a later deadline is clamped to
  /// arrival + default_deadline. Work whose deadline has passed is shed
  /// at every stage — queue pop, pre-scoring, pre-verification — instead
  /// of being served late.
  std::int64_t deadline_ms = 0;

  [[nodiscard]] common::Bytes serialize() const;
};

/// Step 4: the challenge carrying the puzzle.
struct Challenge final {
  std::uint64_t request_id = 0;
  pow::Puzzle puzzle;

  [[nodiscard]] common::Bytes serialize() const;
};

/// Step 5: puzzle echoed back with the claimed solution.
struct Submission final {
  std::uint64_t request_id = 0;
  pow::Puzzle puzzle;
  pow::Solution solution;
  /// Absolute deadline echoed from the request (0 = none): a solution
  /// whose client already gave up is shed before verification.
  std::int64_t deadline_ms = 0;

  [[nodiscard]] common::Bytes serialize() const;
};

/// Step 7: the final outcome.
struct Response final {
  std::uint64_t request_id = 0;
  common::ErrorCode status = common::ErrorCode::kOk;  ///< kOk = resource served
  std::string body;  ///< resource content, or error detail
  /// Overload hint: how long the client should back off before
  /// retrying (0 = no hint). Only meaningful with kUnavailable.
  std::uint32_t retry_after_ms = 0;

  [[nodiscard]] common::Bytes serialize() const;
};

/// Any protocol message (decode result).
using Message = std::variant<Request, Challenge, Submission, Response>;

/// Decodes one message; std::nullopt on malformed input of any kind.
[[nodiscard]] std::optional<Message> decode(common::BytesView wire);

/// The tag a wire buffer claims to carry (std::nullopt if empty).
[[nodiscard]] std::optional<MessageType> peek_type(common::BytesView wire);

}  // namespace powai::framework
