#pragma once
/// \file model.hpp
/// The AI-model component of the framework (Fig. 1, step 2). A reputation
/// model maps an IP's attribute vector to a score in [0, 10] where higher
/// means *less* trustworthy, matching the paper's convention. Models also
/// report an error estimate ε used by Policy 3 (error-range mapping).

#include <memory>
#include <string>
#include <string_view>

#include "features/dataset.hpp"
#include "features/feature_vector.hpp"

namespace powai::reputation {

/// Score range bounds (the paper normalizes scores to 0 - 10).
inline constexpr double kMinScore = 0.0;
inline constexpr double kMaxScore = 10.0;

/// Interface for the pluggable AI model.
///
/// Lifecycle: construct → fit() on labeled data → score() queries.
/// Implementations throw std::logic_error if scored before fitting and
/// std::invalid_argument if fit on data that lacks one of the classes.
class IReputationModel {
 public:
  virtual ~IReputationModel() = default;

  /// Short stable identifier ("dabr").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Trains the model on labeled examples.
  virtual void fit(const features::Dataset& data) = 0;

  [[nodiscard]] virtual bool fitted() const = 0;

  /// Reputation score in [kMinScore, kMaxScore]; higher = more suspect.
  [[nodiscard]] virtual double score(const features::FeatureVector& x) const = 0;

  /// The model's score-error estimate ε (>= 0), set during fit(). This is
  /// the ε that Policy 3 corrects for.
  [[nodiscard]] virtual double error_epsilon() const = 0;
};

/// Clamps an arbitrary value into the legal score range.
[[nodiscard]] double clamp_score(double score);

/// Binary decision rule used when a hard label is needed (evaluation,
/// blocklists): an IP is called malicious when its score exceeds
/// \p threshold (the scale midpoint by default).
[[nodiscard]] bool classify(double score, double threshold = 5.0);

}  // namespace powai::reputation
