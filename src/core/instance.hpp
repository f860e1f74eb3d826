#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rate_model.hpp"
#include "core/types.hpp"

namespace qoslb {

/// An instance of the QoS load-balancing problem (DESIGN.md §1).
///
/// `m` resources with capacities `s_r > 0` and `n` users with QoS
/// requirements `q_u > 0`. A resource serving `ℓ` users offers user `u`
/// quality `rate(u, r) · s_r / ℓ` (processor sharing scaled by the
/// per-(user, resource) service rate); user `u` is satisfied iff the
/// quality meets its requirement, i.e. iff `ℓ ≤ threshold(u, r)` with
/// `threshold(u, r) = ⌊rate(u, r) · s_r / q_u⌋`. The default RateModel is
/// uniform (`rate ≡ 1`, the paper's base model); see docs/heterogeneity.md
/// for the matrix and bipartite restricted-assignment forms.
///
/// Users may carry integer weights `w_u ≥ 1` (the weighted model, DESIGN.md
/// §6): loads then count weight units, `W_r = Σ w_u` over r's users, and the
/// same threshold rule reads `W_r ≤ threshold(u, r)`. No weights (the
/// default) means unit weights, where `W_r` is the occupancy.
///
/// Immutable after construction; States reference an Instance and must not
/// outlive it.
class Instance {
 public:
  /// Uniform rates: per-resource capacities, per-user requirements.
  Instance(std::vector<double> capacities, std::vector<double> requirements);

  /// Heterogeneous rates; `rates` dimensions must match (unless uniform).
  Instance(std::vector<double> capacities, std::vector<double> requirements,
           RateModel rates);

  /// Weighted users: `weights[u] ≥ 1`, one per user, total at most INT_MAX
  /// (loads are `int`); an empty vector means unit weights. Weighted
  /// instances require strictly positive rates (no restricted assignment).
  Instance(std::vector<double> capacities, std::vector<double> requirements,
           RateModel rates, std::vector<std::uint32_t> weights);

  /// All resources share one capacity (the paper's base model).
  static Instance identical(std::size_t m_resources, double capacity,
                            std::vector<double> requirements);

  std::size_t num_users() const { return requirements_.size(); }
  std::size_t num_resources() const { return capacities_.size(); }

  double capacity(ResourceId r) const;
  double requirement(UserId u) const;

  /// Rate-agnostic quality of resource `r` at occupancy `load` (load ≥ 1):
  /// `s_r / load`, every user's quality under the uniform model.
  double quality(ResourceId r, int load) const;

  /// Quality user `u` experiences on `r` at occupancy `load`:
  /// `rate(u, r) · s_r / load`.
  double quality(UserId u, ResourceId r, int load) const;

  /// Service rate of the (u, r) pair; 0 means `u` cannot use `r`.
  double rate(UserId u, ResourceId r) const { return rates_.rate(u, r); }

  /// True iff the users carry explicit weights (see the class comment).
  bool weighted() const { return !weights_.empty(); }

  /// User u's weight: what it adds to its resource's load (1 unless
  /// weighted()).
  int weight(UserId u) const {
    return weights_.empty() ? 1 : static_cast<int>(weights_[u]);
  }

  /// Σ weight(u): the largest load any resource can reach (n when unit).
  std::uint64_t total_weight() const { return total_weight_; }

  /// Maximum load of `r` at which user `u` is still satisfied; 0 means `u`
  /// can never be satisfied on `r` (in particular for every unreachable
  /// pair). Clamped to total_weight() (a load can never exceed it, so larger
  /// thresholds are indistinguishable).
  int threshold(UserId u, ResourceId r) const;

  /// True when threshold(u, r) is independent of r (identical capacities and
  /// uniform rates — the paper's base model); the values are then the
  /// precomputed flat_thresholds() table and threshold() is a table lookup.
  bool flat_thresholds_available() const { return !flat_thresholds_.empty(); }

  /// The per-user threshold table when flat_thresholds_available(); the
  /// round hot path streams this instead of calling threshold() per probe.
  std::span<const int> flat_thresholds() const { return flat_thresholds_; }

  /// True if every resource has the same capacity (enables the O(n+m)
  /// equilibrium fast path — which additionally needs uniform_rates()).
  bool identical_capacities() const { return identical_; }

  const RateModel& rate_model() const { return rates_; }
  bool uniform_rates() const { return rates_.is_uniform(); }

  /// True iff some user's reachable set is a proper subset of the
  /// resources. Protocols must restrict sampling to reachable() exactly
  /// when this holds; see Protocol::restricted_assignment_compatible().
  bool restricted() const { return rates_.restricted(); }

  /// The resources user `u` can use (rate > 0), ascending. Requires a
  /// restricted (or bipartite) rate model.
  std::span<const ResourceId> reachable(UserId u) const {
    return rates_.reachable(u);
  }

 private:
  std::vector<double> capacities_;
  std::vector<double> requirements_;
  std::vector<double> inv_requirements_;  // 1/q_u, precomputed for threshold()
  std::vector<int> flat_thresholds_;      // threshold(u, ·) when r-independent
  std::vector<std::uint32_t> weights_;    // empty: unit weights
  std::uint64_t total_weight_ = 0;
  RateModel rates_;
  bool identical_ = true;
};

}  // namespace qoslb
