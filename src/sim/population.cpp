#include "sim/population.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/drbg.hpp"

namespace powai::sim {

namespace {
/// Stream ids under a client key (see derivation tree in the header).
constexpr std::uint64_t kWeightStream = 0;
constexpr std::uint64_t kGapStreamBase = 1;

/// Pareto(alpha) with scale chosen so the mean is \p mean:
/// xm = mean * (alpha - 1) / alpha, X = xm * U^(-1/alpha), U in (0, 1].
double pareto_with_mean(double mean, double alpha, double u01) {
  const double xm = mean * (alpha - 1.0) / alpha;
  const double u = 1.0 - u01;  // uniform01 is [0,1); flip to (0,1]
  return xm * std::pow(u, -1.0 / alpha);
}
}  // namespace

bool parse_arrival_process(const std::string& name, ArrivalProcess& out) {
  if (name == "poisson") {
    out = ArrivalProcess::kPoisson;
  } else if (name == "diurnal") {
    out = ArrivalProcess::kDiurnal;
  } else if (name == "pareto") {
    out = ArrivalProcess::kPareto;
  } else if (name == "flash") {
    out = ArrivalProcess::kFlashCrowd;
  } else {
    return false;
  }
  return true;
}

const char* arrival_process_name(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
    case ArrivalProcess::kPareto:
      return "pareto";
    case ArrivalProcess::kFlashCrowd:
      return "flash";
  }
  return "?";
}

void ArrivalConfig::validate() const {
  if (!(mean_interarrival_ms > 0.0)) {
    throw std::invalid_argument("ArrivalConfig: mean_interarrival_ms <= 0");
  }
  if (process == ArrivalProcess::kDiurnal) {
    if (!(diurnal_period_ms > 0.0)) {
      throw std::invalid_argument("ArrivalConfig: diurnal_period_ms <= 0");
    }
    if (!(diurnal_depth >= 0.0) || diurnal_depth >= 1.0) {
      // depth == 1 would zero the rate at the trough — an infinite gap.
      throw std::invalid_argument(
          "ArrivalConfig: diurnal_depth outside [0, 1)");
    }
  }
  if (process == ArrivalProcess::kPareto && !(pareto_alpha > 1.0)) {
    throw std::invalid_argument(
        "ArrivalConfig: pareto_alpha must exceed 1 (finite mean)");
  }
  if (process == ArrivalProcess::kFlashCrowd) {
    if (!(flash_factor >= 1.0)) {
      throw std::invalid_argument("ArrivalConfig: flash_factor < 1");
    }
    if (!(flash_at_ms >= 0.0)) {
      throw std::invalid_argument("ArrivalConfig: flash_at_ms < 0");
    }
  }
}

ClientPopulation::ClientPopulation(PopulationConfig config)
    : config_(std::move(config)) {
  if (config_.clients == 0) {
    throw std::invalid_argument("ClientPopulation: clients == 0");
  }
  config_.arrivals.validate();
  if (config_.weight_alpha != 0.0 && !(config_.weight_alpha > 1.0)) {
    throw std::invalid_argument(
        "ClientPopulation: weight_alpha must be 0 or > 1");
  }
  const auto base = features::IpAddress::parse(config_.base_ip);
  if (!base) {
    throw std::invalid_argument("ClientPopulation: malformed base_ip '" +
                                config_.base_ip + "'");
  }
  const std::uint64_t room =
      (std::uint64_t{1} << 32) - static_cast<std::uint64_t>(base->value());
  if (config_.clients > room) {
    throw std::invalid_argument(
        "ClientPopulation: range wraps past 255.255.255.255");
  }
  base_ = base->value();

  // The one O(n) pass: client keys off the DerivedDrbg family. Each key
  // is next_u64(i), the first u64 of stream i — a pure function of
  // (seed, i), so the table's content does not depend on construction
  // order and two populations with the same config are identical.
  const std::uint64_t seed = config_.seed;
  const common::Bytes seed_bytes{
      static_cast<std::uint8_t>(seed >> 56),
      static_cast<std::uint8_t>(seed >> 48),
      static_cast<std::uint8_t>(seed >> 40),
      static_cast<std::uint8_t>(seed >> 32),
      static_cast<std::uint8_t>(seed >> 24),
      static_cast<std::uint8_t>(seed >> 16),
      static_cast<std::uint8_t>(seed >> 8),
      static_cast<std::uint8_t>(seed)};
  const crypto::DerivedDrbg family(seed_bytes,
                                   common::bytes_of("powai-population"));
  keys_.reserve(config_.clients);
  for (std::size_t i = 0; i < config_.clients; ++i) {
    keys_.push_back(family.next_u64(static_cast<std::uint64_t>(i)));
  }
}

std::string ClientPopulation::ip_of(std::size_t i) const {
  return address_of(i).to_string();
}

features::IpAddress ClientPopulation::address_of(std::size_t i) const {
  if (i >= keys_.size()) {
    throw std::out_of_range("ClientPopulation: client index out of range");
  }
  return features::IpAddress(base_ + static_cast<std::uint32_t>(i));
}

std::size_t ClientPopulation::index_of(features::IpAddress ip) const {
  if (ip.value() < base_) return npos;
  const std::uint64_t offset = ip.value() - base_;
  return offset < keys_.size() ? static_cast<std::size_t>(offset) : npos;
}

double ClientPopulation::weight_of(std::size_t i) const {
  if (config_.weight_alpha == 0.0) return 1.0;
  common::Rng rng = common::stream_rng(keys_.at(i), kWeightStream);
  return pareto_with_mean(1.0, config_.weight_alpha, rng.uniform01());
}

common::Duration ClientPopulation::gap_before(std::size_t i, std::uint64_t n,
                                              double now_ms) const {
  const ArrivalConfig& a = config_.arrivals;
  // One derived stream per (client, request ordinal): the draw is
  // reproducible regardless of when — or on which thread — the harness
  // asks for it.
  common::Rng rng = common::stream_rng(keys_.at(i), kGapStreamBase + n);
  const double mean_ms = a.mean_interarrival_ms / weight_of(i);

  double gap_ms = 0.0;
  switch (a.process) {
    case ArrivalProcess::kPoisson:
      gap_ms = rng.exponential(1.0) * mean_ms;
      break;
    case ArrivalProcess::kDiurnal: {
      // Rate-modulated exponential: the instantaneous rate at `now`
      // follows a sinusoidal day curve. (Gap-level approximation of an
      // inhomogeneous Poisson process — exact as gaps shrink relative
      // to the period, and deterministic per (i, n, now).)
      const double phase =
          2.0 * std::numbers::pi * (now_ms / a.diurnal_period_ms);
      const double rate_factor = 1.0 + a.diurnal_depth * std::sin(phase);
      gap_ms = rng.exponential(1.0) * mean_ms / rate_factor;
      break;
    }
    case ArrivalProcess::kPareto:
      gap_ms = pareto_with_mean(mean_ms, a.pareto_alpha, rng.uniform01());
      break;
    case ArrivalProcess::kFlashCrowd: {
      const double rate_factor = now_ms >= a.flash_at_ms ? a.flash_factor : 1.0;
      gap_ms = rng.exponential(1.0) * mean_ms / rate_factor;
      break;
    }
  }
  return common::Duration(
      static_cast<common::Duration::rep>(std::llround(gap_ms * 1e6)));
}

}  // namespace powai::sim
