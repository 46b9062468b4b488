// Quickstart: the three PoW roles (issuer, solver, verifier) in one file,
// then the full AI-assisted pipeline in a dozen lines.
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "features/synthetic.hpp"
#include "framework/client.hpp"
#include "framework/server.hpp"
#include "policy/linear_policy.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"
#include "pow/verifier.hpp"
#include "reputation/dabr.hpp"

int main() {
  using namespace powai;

  // --- Part 1: bare PoW --------------------------------------------------
  // The issuer and verifier share a master secret; the client only ever
  // sees the puzzle.
  const common::WallClock& clock = common::WallClock::instance();
  const common::Bytes secret = common::bytes_of("quickstart-secret");

  pow::PuzzleGenerator issuer(clock, secret);
  pow::Verifier verifier(clock, secret);

  // Request key 1: the client's request id; re-issuing for the same
  // (ip, key) returns the same puzzle.
  const pow::Puzzle puzzle =
      issuer.issue_for("192.0.2.1", /*request_key=*/1, /*difficulty=*/12);
  std::printf("issued puzzle id=%llu difficulty=%u seed=%s...\n",
              static_cast<unsigned long long>(puzzle.puzzle_id),
              puzzle.difficulty, common::to_hex(puzzle.seed).substr(0, 16).c_str());

  const pow::SolveResult solved = pow::Solver{}.solve(puzzle);
  std::printf("solved in %llu attempts (nonce=%llu)\n",
              static_cast<unsigned long long>(solved.attempts),
              static_cast<unsigned long long>(solved.solution.nonce));

  const common::Status ok = verifier.verify(puzzle, solved.solution, "192.0.2.1");
  std::printf("verification: %s\n", ok.ok() ? "accepted" : ok.error().to_string().c_str());

  // --- Part 2: the AI-assisted pipeline ----------------------------------
  // Train the reputation model on labeled traffic, pick a policy, stand up
  // the server, and run one trustworthy and one suspicious client.
  common::Rng rng(7);
  const features::SyntheticTraceGenerator traffic;
  reputation::DabrModel model;
  model.fit(traffic.generate(500, 500, rng));
  std::printf("\nDAbR trained (epsilon=%.2f)\n", model.error_epsilon());

  const policy::LinearPolicy policy = policy::LinearPolicy::policy2();
  framework::ServerConfig config;
  config.master_secret = secret;
  framework::PowServer server(clock, model, policy, config);

  framework::PowClient good_client("10.0.0.1");
  framework::PowClient bot("203.0.0.1");

  const auto good_trip =
      good_client.run(server, "/", traffic.sample(false, rng));
  const auto bot_trip = bot.run(server, "/", traffic.sample(true, rng));

  std::printf("benign client: difficulty=%u attempts=%llu served=%s\n",
              good_trip.difficulty,
              static_cast<unsigned long long>(good_trip.attempts),
              good_trip.served ? "yes" : "no");
  std::printf("suspicious client: difficulty=%u attempts=%llu served=%s\n",
              bot_trip.difficulty,
              static_cast<unsigned long long>(bot_trip.attempts),
              bot_trip.served ? "yes" : "no");
  std::printf("-> the suspicious client paid %.0fx more hash work\n",
              good_trip.attempts > 0
                  ? static_cast<double>(bot_trip.attempts) /
                        static_cast<double>(good_trip.attempts)
                  : 0.0);
  return 0;
}
