#pragma once

#include <cstdint>
#include <vector>

#include "core/weighted/weighted_instance.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {

/// Assignment of weighted users to resources with exact integer weight-loads
/// maintained incrementally. Mirrors core/state.hpp for the weighted model,
/// minus the satisfaction index: weighted runs are small and sequential, so
/// satisfaction is always read by a direct scan.
class WeightedState {
 public:
  WeightedState(const WeightedInstance& instance,
                std::vector<ResourceId> assignment);

  static WeightedState all_on(const WeightedInstance& instance, ResourceId r);
  static WeightedState random(const WeightedInstance& instance, Xoshiro256& rng);

  const WeightedInstance& instance() const { return *instance_; }
  std::size_t num_users() const { return assignment_.size(); }
  std::size_t num_resources() const { return loads_.size(); }

  ResourceId resource_of(UserId u) const;
  std::int64_t load(ResourceId r) const;
  const std::vector<std::int64_t>& loads() const { return loads_; }

  void move(UserId u, ResourceId r);

  bool satisfied(UserId u) const;

  std::size_t count_satisfied() const;
  std::size_t count_unsatisfied() const { return num_users() - count_satisfied(); }

  /// Total weight of satisfied users (the weighted welfare measure).
  std::uint64_t satisfied_weight() const;

  void check_invariants() const;

 private:
  const WeightedInstance* instance_;
  std::vector<ResourceId> assignment_;
  std::vector<std::int64_t> loads_;
};

/// Would user u be satisfied on r after moving there (its weight counted)?
bool weighted_satisfied_after_move(const WeightedState& state, UserId u,
                                   ResourceId r);

/// True iff no unsatisfied user has a satisfying deviation. O(n·m).
bool is_weighted_satisfaction_equilibrium(const WeightedState& state);

}  // namespace qoslb
