// Tests for the wire protocol: round trips, tag dispatch, and fuzzing of
// malformed buffers.

#include "framework/protocol.hpp"

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "pow/generator.hpp"

namespace powai::framework {
namespace {

pow::Puzzle sample_puzzle() {
  static common::ManualClock clock;
  static pow::PuzzleGenerator gen(clock, common::bytes_of("proto-secret"));
  static std::uint64_t key = 0;
  return gen.issue_for("203.0.113.5", ++key, 6);
}

features::FeatureVector sample_features() {
  features::FeatureVector v;
  for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
    v[i] = 0.25 * static_cast<double>(i) - 1.0;
  }
  return v;
}

TEST(Protocol, RequestRoundTrip) {
  Request r;
  r.client_ip = "203.0.113.5";
  r.path = "/index.html";
  r.features = sample_features();
  r.request_id = 77;
  const auto decoded = decode(r.serialize());
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Request>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->client_ip, r.client_ip);
  EXPECT_EQ(back->path, r.path);
  EXPECT_EQ(back->features, r.features);
  EXPECT_EQ(back->request_id, 77u);
}

TEST(Protocol, FeatureDoublesSurviveExactly) {
  Request r;
  r.client_ip = "1.2.3.4";
  r.features[0] = 0.1;  // not exactly representable
  r.features[1] = -1e300;
  r.features[2] = 3.14159265358979;
  const auto decoded = decode(r.serialize());
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<Request>(*decoded);
  EXPECT_EQ(back.features, r.features);  // bit-exact
}

TEST(Protocol, ChallengeRoundTrip) {
  Challenge c;
  c.request_id = 9;
  c.puzzle = sample_puzzle();
  const auto decoded = decode(c.serialize());
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<Challenge>(*decoded);
  EXPECT_EQ(back.puzzle, c.puzzle);
  EXPECT_EQ(back.request_id, 9u);
}

TEST(Protocol, SubmissionRoundTrip) {
  Submission s;
  s.request_id = 10;
  s.puzzle = sample_puzzle();
  s.solution = {s.puzzle.puzzle_id, 0xabcdef12345ULL};
  const auto decoded = decode(s.serialize());
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<Submission>(*decoded);
  EXPECT_EQ(back.puzzle, s.puzzle);
  EXPECT_EQ(back.solution, s.solution);
}

TEST(Protocol, ResponseRoundTrip) {
  Response r;
  r.request_id = 11;
  r.status = common::ErrorCode::kReplay;
  r.body = "puzzle already redeemed";
  const auto decoded = decode(r.serialize());
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<Response>(*decoded);
  EXPECT_EQ(back.status, common::ErrorCode::kReplay);
  EXPECT_EQ(back.body, r.body);
}

TEST(Protocol, DeadlineAndRetryHintFieldsSurviveTheWire) {
  // The overload-control fields: the request/submission deadline is
  // what every server stage sheds against, and the response's
  // retry_after hint is what shed clients back off by — losing either
  // in transit would silently disable the control loop end to end.
  Request req;
  req.client_ip = "203.0.113.5";
  req.features = sample_features();
  req.deadline_ms = 123'456'789;
  ASSERT_TRUE(decode(req.serialize()).has_value());
  EXPECT_EQ(std::get<Request>(*decode(req.serialize())).deadline_ms,
            123'456'789);

  Submission sub;
  sub.request_id = 12;
  sub.puzzle = sample_puzzle();
  sub.solution = {sub.puzzle.puzzle_id, 99};
  sub.deadline_ms = -1;  // signed: skewed clocks can stamp the past
  ASSERT_TRUE(decode(sub.serialize()).has_value());
  EXPECT_EQ(std::get<Submission>(*decode(sub.serialize())).deadline_ms, -1);

  Response resp;
  resp.request_id = 13;
  resp.status = common::ErrorCode::kUnavailable;
  resp.retry_after_ms = 2000;
  ASSERT_TRUE(decode(resp.serialize()).has_value());
  EXPECT_EQ(std::get<Response>(*decode(resp.serialize())).retry_after_ms,
            2000u);

  // Zero (= unset) round-trips too: the server substitutes its default
  // only for a genuine zero, so an encode that dropped or invented the
  // field would change admission behaviour.
  Request bare;
  bare.client_ip = "203.0.113.6";
  EXPECT_EQ(std::get<Request>(*decode(bare.serialize())).deadline_ms, 0);
}

TEST(Protocol, PeekTypeReadsTag) {
  Request r;
  r.client_ip = "1.2.3.4";
  EXPECT_EQ(peek_type(r.serialize()), MessageType::kRequest);
  Response resp;
  EXPECT_EQ(peek_type(resp.serialize()), MessageType::kResponse);
  EXPECT_FALSE(peek_type({}).has_value());
  const common::Bytes junk = {0x09};
  EXPECT_FALSE(peek_type(junk).has_value());
}

TEST(Protocol, DecodeRejectsUnknownTag) {
  common::Bytes wire = {0x00, 0x01, 0x02};
  EXPECT_FALSE(decode(wire).has_value());
  wire[0] = 0x05;
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Protocol, DecodeRejectsEveryTruncation) {
  Submission s;
  s.request_id = 1;
  s.puzzle = sample_puzzle();
  s.solution = {s.puzzle.puzzle_id, 42};
  const common::Bytes wire = s.serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        decode(common::BytesView(wire.data(), len)).has_value())
        << "len=" << len;
  }
}

TEST(Protocol, DecodeRejectsTrailingGarbage) {
  Response r;
  common::Bytes wire = r.serialize();
  wire.push_back(0xff);
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Protocol, DecodeRejectsOversizedLengthClaims) {
  // A Request whose ip length field claims 1 MiB.
  common::Bytes wire;
  wire.push_back(static_cast<std::uint8_t>(MessageType::kRequest));
  common::append_u64be(wire, 1);          // request id
  common::append_u32be(wire, 1 << 20);    // absurd ip length
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Protocol, DecodeSurvivesRandomBytes) {
  // Fuzz: random buffers must never crash and (almost always) fail to
  // parse cleanly.
  common::Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    common::Bytes buf(rng.uniform_u64(0, 128));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
    (void)decode(buf);  // must not throw or crash
  }
}

TEST(Protocol, DecodeSurvivesBitFlippedValidMessages) {
  Challenge c;
  c.request_id = 5;
  c.puzzle = sample_puzzle();
  const common::Bytes wire = c.serialize();
  common::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    common::Bytes mutated = wire;
    const std::size_t byte = rng.uniform_u64(0, mutated.size() - 1);
    mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_u64(0, 7));
    (void)decode(mutated);  // must not throw or crash
  }
}

TEST(Protocol, ResponseStatusRangeEnforced) {
  Response r;
  r.status = common::ErrorCode::kTimeout;  // 10, the max wire value
  EXPECT_TRUE(decode(r.serialize()).has_value());
  common::Bytes wire = r.serialize();
  // Patch the status field (bytes 9-10 after tag+id) to 11: invalid.
  wire[9] = 0;
  wire[10] = 11;
  EXPECT_FALSE(decode(wire).has_value());
}

}  // namespace
}  // namespace powai::framework
