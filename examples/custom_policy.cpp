// Customizing the policy module — the paper's extension point ("a network
// administrator may specify a policy based on her specific security
// needs"). A policy is any IPolicy subclass; this one is written by hand
// and printed beside the paper's Policies 1–3 as a reputation→difficulty
// table.
//
// Usage:   ./build/examples/custom_policy

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "policy/error_range_policy.hpp"
#include "policy/linear_policy.hpp"

namespace {

/// A custom C++ policy. Difficulty follows the square of the score so
/// mid-range clients stay cheap and only the worst pay heavily.
class QuadraticPolicy final : public powai::policy::IPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "quadratic"; }
  [[nodiscard]] powai::policy::Difficulty difficulty(
      double score, powai::common::Rng&) const override {
    return powai::policy::clamp_difficulty(1.0 + 0.14 * score * score);
  }
  [[nodiscard]] std::string describe() const override {
    return "quadratic: d = 1 + 0.14 R^2";
  }
};

}  // namespace

int main() {
  using namespace powai;

  const policy::LinearPolicy policy1 = policy::LinearPolicy::policy1();
  const policy::LinearPolicy policy2 = policy::LinearPolicy::policy2();
  const policy::ErrorRangePolicy policy3(1.5);
  const QuadraticPolicy quadratic;
  const policy::IPolicy* const policies[] = {&policy1, &policy2, &policy3,
                                             &quadratic};

  common::Rng rng(1);
  common::Table table({"score", "policy1", "policy2", "policy3", "quadratic"});
  for (int r = 0; r <= 10; ++r) {
    std::vector<std::string> row{std::to_string(r)};
    for (const policy::IPolicy* p : policies) {
      row.push_back(std::to_string(p->difficulty(r, rng)));
    }
    table.add_row(std::move(row));
  }

  for (const policy::IPolicy* p : policies) {
    std::printf("%s\n", p->describe().c_str());
  }
  std::printf("\n%s", table.to_text().c_str());
  return 0;
}
