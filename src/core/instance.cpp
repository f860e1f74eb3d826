#include "core/instance.hpp"

#include <climits>
#include <cmath>

#include "util/check.hpp"

namespace qoslb {
namespace {

// Tolerance for the threshold floor: capacities and requirements are often
// constructed as ratios (q = s / T), where floating-point rounding can land
// s/q infinitesimally below the intended integer.
constexpr double kFloorEpsilon = 1e-9;

}  // namespace

Instance::Instance(std::vector<double> capacities, std::vector<double> requirements)
    : Instance(std::move(capacities), std::move(requirements), RateModel()) {}

Instance::Instance(std::vector<double> capacities,
                   std::vector<double> requirements, RateModel rates)
    : Instance(std::move(capacities), std::move(requirements),
               std::move(rates), {}) {}

Instance::Instance(std::vector<double> capacities,
                   std::vector<double> requirements, RateModel rates,
                   std::vector<std::uint32_t> weights)
    : capacities_(std::move(capacities)),
      requirements_(std::move(requirements)),
      weights_(std::move(weights)),
      rates_(std::move(rates)) {
  QOSLB_REQUIRE(!capacities_.empty(), "instance needs at least one resource");
  QOSLB_REQUIRE(!requirements_.empty(), "instance needs at least one user");
  for (const double s : capacities_) {
    QOSLB_REQUIRE(std::isfinite(s) && s > 0.0, "capacities must be positive");
    if (s != capacities_.front()) identical_ = false;
  }
  inv_requirements_.reserve(requirements_.size());
  for (const double q : requirements_) {
    QOSLB_REQUIRE(std::isfinite(q) && q > 0.0, "requirements must be positive");
    inv_requirements_.push_back(1.0 / q);
  }
  // The RateModel validated its own shape (no empty reachable sets); here
  // only the dimensions need to agree with the scalar vectors.
  QOSLB_REQUIRE(rates_.is_uniform() ||
                    (rates_.num_users() == requirements_.size() &&
                     rates_.num_resources() == capacities_.size()),
                "rate model dimensions must match the instance");
  total_weight_ = requirements_.size();
  if (!weights_.empty()) {
    QOSLB_REQUIRE(weights_.size() == requirements_.size(),
                  "one weight per user required");
    total_weight_ = 0;
    for (const std::uint32_t w : weights_) {
      QOSLB_REQUIRE(w >= 1, "weights must be at least 1");
      total_weight_ += w;
    }
    QOSLB_REQUIRE(total_weight_ <= static_cast<std::uint64_t>(INT_MAX),
                  "total weight must fit an int load (at most INT_MAX)");
    QOSLB_REQUIRE(!rates_.restricted(),
                  "weighted instances require strictly positive rates "
                  "(restricted assignment is not supported in the weighted "
                  "model)");
  }
  if (identical_ && rates_.is_uniform()) {
    // threshold(u, r) does not depend on r: precompute the per-user table
    // with the exact arithmetic of threshold() so lookups are bit-identical.
    flat_thresholds_.reserve(requirements_.size());
    const double cap = static_cast<double>(total_weight_);
    for (const double inv_q : inv_requirements_) {
      const double floored =
          std::floor(capacities_.front() * inv_q + kFloorEpsilon);
      flat_thresholds_.push_back(static_cast<int>(std::min(floored, cap)));
    }
  }
}

Instance Instance::identical(std::size_t m_resources, double capacity,
                             std::vector<double> requirements) {
  QOSLB_REQUIRE(m_resources >= 1, "need at least one resource");
  return Instance(std::vector<double>(m_resources, capacity), std::move(requirements));
}

double Instance::capacity(ResourceId r) const {
  QOSLB_REQUIRE(r < capacities_.size(), "resource out of range");
  return capacities_[r];
}

double Instance::requirement(UserId u) const {
  QOSLB_REQUIRE(u < requirements_.size(), "user out of range");
  return requirements_[u];
}

double Instance::quality(ResourceId r, int load) const {
  QOSLB_REQUIRE(load >= 1, "quality defined for load >= 1");
  return capacity(r) / static_cast<double>(load);
}

double Instance::quality(UserId u, ResourceId r, int load) const {
  QOSLB_REQUIRE(load >= 1, "quality defined for load >= 1");
  return rates_.rate(u, r) * capacity(r) / static_cast<double>(load);
}

int Instance::threshold(UserId u, ResourceId r) const {
  QOSLB_REQUIRE(u < requirements_.size(), "user out of range");
  QOSLB_REQUIRE(r < capacities_.size(), "resource out of range");
  if (!flat_thresholds_.empty()) return flat_thresholds_[u];
  double ratio = capacities_[r] * inv_requirements_[u];
  if (!rates_.is_uniform()) {
    const double rate = rates_.rate(u, r);
    if (rate == 0.0) return 0;
    ratio *= rate;
  }
  const double floored = std::floor(ratio + kFloorEpsilon);
  const double cap = static_cast<double>(total_weight_);
  return static_cast<int>(std::min(floored, cap));
}

}  // namespace qoslb
