#include "core/satisfaction.hpp"

#include <limits>

#include "util/check.hpp"

namespace qoslb {

bool satisfied_after_move(const State& state, UserId u, ResourceId r) {
  const Instance& instance = state.instance();
  const int post_load = state.resource_of(u) == r
                            ? state.load(r)
                            : state.load(r) + instance.weight(u);
  return post_load <= instance.threshold(u, r);
}

bool has_satisfying_deviation(const State& state, UserId u) {
  const ResourceId current = state.resource_of(u);
  // Dead resources are not migration targets, so they cannot ground a
  // deviation — otherwise a degraded world could never reach equilibrium.
  for (const ResourceId r : state.live_resources())
    if (r != current && satisfied_after_move(state, u, r)) return true;
  return false;
}

ResourceId best_satisfying_deviation(const State& state, UserId u) {
  const Instance& instance = state.instance();
  const ResourceId current = state.resource_of(u);
  const int w = instance.weight(u);
  ResourceId best = kNoResource;
  double best_quality = 0.0;
  for (const ResourceId r : state.live_resources()) {
    if (r == current || !satisfied_after_move(state, u, r)) continue;
    const double quality = instance.quality(u, r, state.load(r) + w);
    if (best == kNoResource || quality > best_quality) {
      best = r;
      best_quality = quality;
    }
  }
  return best;
}

namespace {

/// Identical-capacity fast path: a user has a satisfying deviation iff
/// min-load-excluding-own + its weight <= its threshold, so only the two
/// smallest loads (with an argmin) are needed.
bool equilibrium_identical(const State& state) {
  const Instance& instance = state.instance();
  const auto& loads = state.loads();
  // Only live resources can receive a deviation; with every resource live
  // the list is the identity and this is the historical all-resource scan.
  const auto& live = state.live_resources();
  ResourceId argmin = live[0];
  int min1 = loads[argmin];
  int min2 = std::numeric_limits<int>::max();
  for (std::size_t i = 1; i < live.size(); ++i) {
    const ResourceId r = live[i];
    if (loads[r] < min1) {
      min2 = min1;
      min1 = loads[r];
      argmin = r;
    } else if (loads[r] < min2) {
      min2 = loads[r];
    }
  }
  return state.for_each_unsatisfied([&](UserId u) {
    const int candidate = state.resource_of(u) == argmin ? min2 : min1;
    // min2 stays at the sentinel when only one resource is live: the user
    // sitting there has nowhere to deviate to.
    if (candidate == std::numeric_limits<int>::max()) return true;
    // Thresholds are identical across resources for identical capacities.
    return candidate + instance.weight(u) > instance.threshold(u, 0);
  });
}

}  // namespace

bool is_satisfaction_equilibrium(const State& state) {
  // The fast path relies on thresholds being identical across resources for
  // each user, which needs identical capacities AND uniform rates.
  const bool identical = state.instance().identical_capacities() &&
                         state.instance().uniform_rates() &&
                         state.num_resources() > 1;
  // The equilibrium condition quantifies over unsatisfied users only, so
  // with the index tracked the check is O(n / 64 + |unsatisfied|).
  if (identical) return equilibrium_identical(state);
  return state.for_each_unsatisfied(
      [&](UserId u) { return !has_satisfying_deviation(state, u); });
}

std::vector<UserId> unsatisfied_users(const State& state) {
  std::vector<UserId> out;
  state.for_each_unsatisfied([&](UserId u) {
    out.push_back(u);
    return true;
  });
  return out;
}

}  // namespace qoslb
