#include "core/state.hpp"

#include <algorithm>
#include <utility>

#include "core/satisfaction_scan.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace qoslb {

State::State(const Instance& instance, std::vector<ResourceId> assignment)
    : instance_(&instance), assignment_(std::move(assignment)) {
  QOSLB_REQUIRE(assignment_.size() == instance.num_users(),
                "assignment must place every user");
  loads_.assign(instance.num_resources(), 0);
  for (UserId u = 0; u < assignment_.size(); ++u) {
    const ResourceId r = assignment_[u];
    QOSLB_REQUIRE(r < instance.num_resources(), "assignment to unknown resource");
    QOSLB_REQUIRE(!instance.restricted() || instance.rate(u, r) > 0.0,
                  "assignment places a user on an unreachable resource");
    loads_[r] += instance.weight(u);
  }
  current_thresholds_.resize(assignment_.size());
  for (UserId u = 0; u < assignment_.size(); ++u)
    current_thresholds_[u] = instance.threshold(u, assignment_[u]);
  live_.assign(instance.num_resources(), 1);
  live_list_.resize(instance.num_resources());
  for (ResourceId r = 0; r < live_list_.size(); ++r) live_list_[r] = r;
}

bool State::resource_live(ResourceId r) const {
  QOSLB_REQUIRE(r < live_.size(), "resource out of range");
  return live_[r] != 0;
}

void State::set_resource_live(ResourceId r, bool live) {
  QOSLB_REQUIRE(r < live_.size(), "resource out of range");
  QOSLB_REQUIRE((live_[r] != 0) != live, "liveness flip must change state");
  if (!live)
    QOSLB_REQUIRE(live_list_.size() >= 2, "cannot kill the last live resource");
  live_[r] = live ? 1 : 0;
  live_list_.clear();
  for (ResourceId s = 0; s < live_.size(); ++s)
    if (live_[s] != 0) live_list_.push_back(s);
}

State State::all_on(const Instance& instance, ResourceId r) {
  QOSLB_REQUIRE(r < instance.num_resources(), "resource out of range");
  return State(instance, std::vector<ResourceId>(instance.num_users(), r));
}

State State::round_robin(const Instance& instance) {
  std::vector<ResourceId> assignment(instance.num_users());
  if (instance.restricted()) {
    // Balanced over each user's own reachable set instead of [0, m).
    for (std::size_t u = 0; u < assignment.size(); ++u) {
      const auto reach = instance.reachable(static_cast<UserId>(u));
      assignment[u] = reach[u % reach.size()];
    }
  } else {
    for (std::size_t u = 0; u < assignment.size(); ++u)
      assignment[u] = static_cast<ResourceId>(u % instance.num_resources());
  }
  return State(instance, std::move(assignment));
}

State State::random(const Instance& instance, Xoshiro256& rng) {
  std::vector<ResourceId> assignment(instance.num_users());
  if (instance.restricted()) {
    for (UserId u = 0; u < assignment.size(); ++u) {
      const auto reach = instance.reachable(u);
      assignment[u] = reach[uniform_u64_below(rng, reach.size())];
    }
  } else {
    for (auto& r : assignment)
      r = static_cast<ResourceId>(
          uniform_u64_below(rng, instance.num_resources()));
  }
  return State(instance, std::move(assignment));
}

State State::two_choices(const Instance& instance, Xoshiro256& rng) {
  std::vector<ResourceId> assignment(instance.num_users());
  std::vector<int> loads(instance.num_resources(), 0);
  for (UserId u = 0; u < assignment.size(); ++u) {
    ResourceId a;
    ResourceId b;
    if (instance.restricted()) {
      const auto reach = instance.reachable(u);
      a = reach[uniform_u64_below(rng, reach.size())];
      b = reach[uniform_u64_below(rng, reach.size())];
    } else {
      a = static_cast<ResourceId>(
          uniform_u64_below(rng, instance.num_resources()));
      b = static_cast<ResourceId>(
          uniform_u64_below(rng, instance.num_resources()));
    }
    const ResourceId choice = loads[b] < loads[a] ? b : a;
    loads[choice] += instance.weight(u);
    assignment[u] = choice;
  }
  return State(instance, std::move(assignment));
}

ResourceId State::resource_of(UserId u) const {
  QOSLB_REQUIRE(u < assignment_.size(), "user out of range");
  return assignment_[u];
}

int State::load(ResourceId r) const {
  QOSLB_REQUIRE(r < loads_.size(), "resource out of range");
  return loads_[r];
}

void State::move(UserId u, ResourceId r) {
  QOSLB_REQUIRE(u < assignment_.size(), "user out of range");
  QOSLB_REQUIRE(r < loads_.size(), "resource out of range");
  const ResourceId old = assignment_[u];
  if (old == r) return;
  QOSLB_REQUIRE(!instance_->restricted() || instance_->rate(u, r) > 0.0,
                "move to an unreachable resource");
  const int w = instance_->weight(u);
  loads_[old] -= w;
  loads_[r] += w;
  assignment_[u] = r;
  // The cached source threshold is bit-identical to a recompute (it was
  // produced by the same instance call when u arrived on `old`), so reusing
  // it halves the threshold work per move.
  const int threshold_on_old = current_thresholds_[u];
  const int threshold_on_new = instance_->threshold(u, r);
  current_thresholds_[u] = threshold_on_new;
  if (index_)
    index_->on_move(u, w, old, threshold_on_old, r, threshold_on_new,
                    loads_[old], loads_[r]);
}

void State::enable_satisfaction_tracking() {
  if (index_) return;
  index_.emplace();
  index_->rebuild(num_users(), num_resources(), assignment_.data(),
                  current_thresholds_.data(), loads_.data());
}

double State::quality_of(UserId u) const {
  const ResourceId r = resource_of(u);
  return instance_->quality(u, r, loads_[r]);
}

bool State::satisfied(UserId u) const {
  QOSLB_REQUIRE(u < assignment_.size(), "user out of range");
  return loads_[assignment_[u]] <= current_thresholds_[u];
}

std::size_t State::count_satisfied() const {
  if (index_) return index_->satisfied_count();
  return count_satisfied_dense(assignment_.data(), current_thresholds_.data(),
                               loads_.data(), assignment_.size());
}

std::uint64_t State::satisfied_weight() const {
  std::uint64_t total = 0;
  for (UserId u = 0; u < assignment_.size(); ++u)
    if (loads_[assignment_[u]] <= current_thresholds_[u])
      total += static_cast<std::uint64_t>(instance_->weight(u));
  return total;
}

int State::max_load() const {
  return *std::max_element(loads_.begin(), loads_.end());
}

int State::min_load() const {
  return *std::min_element(loads_.begin(), loads_.end());
}

void State::check_invariants() const {
  std::vector<int> expected(loads_.size(), 0);
  for (UserId u = 0; u < assignment_.size(); ++u) {
    const ResourceId r = assignment_[u];
    QOSLB_CHECK(r < loads_.size(), "assignment to unknown resource");
    expected[r] += instance_->weight(u);
  }
  QOSLB_CHECK(expected == loads_, "cached loads diverged from assignment");
  for (UserId u = 0; u < assignment_.size(); ++u)
    QOSLB_CHECK(current_thresholds_[u] ==
                    instance_->threshold(u, assignment_[u]),
                "cached current-resource threshold diverged from recompute");
  std::vector<ResourceId> live_expected;
  for (ResourceId r = 0; r < live_.size(); ++r)
    if (live_[r] != 0) live_expected.push_back(r);
  QOSLB_CHECK(live_expected == live_list_,
              "live-resource list diverged from the liveness bitmap");
  for (const ResourceId r : assignment_)
    QOSLB_CHECK(live_[r] != 0, "user resident on a dead resource");
  if (instance_->restricted())
    for (UserId u = 0; u < assignment_.size(); ++u)
      QOSLB_CHECK(instance_->rate(u, assignment_[u]) > 0.0,
                  "user resident on an unreachable resource");
  if (!index_) return;
  // Every enumerated user is unsatisfied, ids strictly ascend (no
  // duplicates), and the count matches a scan: the bitmap is exactly the
  // recomputed unsatisfied set.
  std::size_t listed = 0;
  UserId next = 0;
  for_each_unsatisfied([&](UserId u) {
    QOSLB_CHECK(u >= next, "satisfaction index enumeration not ascending");
    QOSLB_CHECK(!satisfied(u), "satisfaction index diverged from recompute");
    next = u + 1;
    ++listed;
    return true;
  });
  const std::size_t unsatisfied =
      num_users() - count_satisfied_dense(assignment_.data(),
                                          current_thresholds_.data(),
                                          loads_.data(), num_users());
  QOSLB_CHECK(listed == unsatisfied, "satisfaction index set size diverged");
  QOSLB_CHECK(index_->satisfied_count() == num_users() - unsatisfied,
              "satisfied counter diverged");
}

}  // namespace qoslb
