#include "core/potential.hpp"

#include <algorithm>

namespace qoslb {

double rosenthal_potential(const State& state) {
  const Instance& instance = state.instance();
  double total = 0.0;
  for (ResourceId r = 0; r < state.num_resources(); ++r) {
    const int load = state.load(r);
    // Σ_{k=1..load} k = load(load+1)/2.
    total += static_cast<double>(load) * (load + 1) / 2.0 / instance.capacity(r);
  }
  return total;
}

double quality_deficit(const State& state) {
  const Instance& instance = state.instance();
  double total = 0.0;
  for (UserId u = 0; u < state.num_users(); ++u)
    total += std::max(0.0, instance.requirement(u) - state.quality_of(u));
  return total;
}

double load_variance(const State& state) {
  const auto& loads = state.loads();
  const double mean = static_cast<double>(state.instance().total_weight()) /
                      static_cast<double>(state.num_resources());
  double acc = 0.0;
  for (const int load : loads) {
    const double d = static_cast<double>(load) - mean;
    acc += d * d;
  }
  return acc / static_cast<double>(loads.size());
}

}  // namespace qoslb
