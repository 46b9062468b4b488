// The AI-model component in isolation: train DAbR on labeled traffic,
// evaluate it on a held-out split (reproducing the shape of its published
// ~80% accuracy), and score a few example IPs.
//
// Usage:   ./build/examples/reputation_scoring [key=value ...]
//   rows=2000 overlap=0.58 seed=3

#include <cstdio>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "features/synthetic.hpp"
#include "reputation/dabr.hpp"
#include "reputation/evaluator.hpp"

int main(int argc, char** argv) {
  using namespace powai;

  const common::Config args = common::Config::from_args(argc, argv);
  const auto rows = static_cast<std::size_t>(args.get_u64("rows", 2000));

  features::SyntheticConfig traffic_cfg;
  traffic_cfg.class_overlap = args.get_f64("overlap", 0.58);
  const features::SyntheticTraceGenerator traffic(traffic_cfg);

  common::Rng rng(args.get_u64("seed", 3));
  features::Dataset data = traffic.generate(rows / 2, rows / 2, rng);
  data.shuffle(rng);
  const auto [train, test] = data.split(0.7);

  reputation::DabrModel dabr;
  dabr.fit(train);
  const reputation::EvaluationReport r = reputation::evaluate(dabr, test);
  common::Table table(
      {"model", "accuracy", "precision", "recall", "f1", "auc", "epsilon"});
  table.add_row({std::string(dabr.name()), common::fmt_f(r.accuracy, 3),
                 common::fmt_f(r.precision, 3), common::fmt_f(r.recall, 3),
                 common::fmt_f(r.f1, 3), common::fmt_f(r.roc_auc, 3),
                 common::fmt_f(dabr.error_epsilon(), 2)});
  std::printf("held-out evaluation (%zu train / %zu test rows):\n%s\n",
              train.size(), test.size(), table.to_text().c_str());

  // Score a handful of fresh observations with the trained DAbR.
  std::printf("sample scores (0 = trusted ... 10 = untrustworthy):\n");
  for (int i = 0; i < 3; ++i) {
    const auto benign = traffic.sample(false, rng);
    const auto malicious = traffic.sample(true, rng);
    std::printf("  benign traffic pattern     -> %.1f\n", dabr.score(benign));
    std::printf("  malicious traffic pattern  -> %.1f\n", dabr.score(malicious));
  }
  return 0;
}
