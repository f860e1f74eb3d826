// Property tests for the incremental satisfaction index: after long random
// move sequences — under the unit model, related capacities, a per-pair rate
// matrix, a restricted access graph, and a crowded small bucket table — the
// incrementally maintained unsatisfied bitmap must enumerate exactly the
// from-scratch unsatisfied set, in ascending id order, and the satisfied
// counter must equal a recount. Plus the index's scope: only active-mode
// engine runs build it.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "core/state.hpp"
#include "core/weighted/weighted_generators.hpp"
#include "core/weighted/weighted_protocols.hpp"
#include "core/weighted/weighted_state.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {
namespace {

constexpr std::size_t kMoves = 10000;
// A full unsatisfied-set comparison is O(n); doing it on a stride (plus once
// at the end) keeps the test fast while the O(1) counter is checked after
// every single move.
constexpr std::size_t kSetCheckStride = 250;

std::vector<UserId> brute_force_unsatisfied(const State& state) {
  std::vector<UserId> unsat;
  for (UserId u = 0; u < state.num_users(); ++u)
    if (!state.satisfied(u)) unsat.push_back(u);
  return unsat;
}

std::size_t brute_force_satisfied(const State& state) {
  std::size_t count = 0;
  for (UserId u = 0; u < state.num_users(); ++u)
    if (state.satisfied(u)) ++count;
  return count;
}

/// The enumeration order as produced — deliberately not sorted here, so the
/// comparison against the ascending brute force also checks the order.
std::vector<UserId> enumerated(const State& state) {
  std::vector<UserId> out;
  state.for_each_unsatisfied([&](UserId u) {
    out.push_back(u);
    return true;
  });
  return out;
}

void expect_index_matches_recompute(const State& state) {
  EXPECT_EQ(enumerated(state), brute_force_unsatisfied(state));
  state.check_invariants();
}

/// Moves a uniformly drawn user to a resource it can use — any resource,
/// or a reachable one on a restricted instance — for `moves` steps, checking
/// the counter after every move and the whole set every `set_check_stride`.
void random_walk(State& state, Xoshiro256& rng, std::size_t moves = kMoves,
                 std::size_t set_check_stride = kSetCheckStride) {
  const Instance& instance = state.instance();
  const std::size_t n = state.num_users();
  const std::size_t m = state.num_resources();
  state.enable_satisfaction_tracking();
  ASSERT_TRUE(state.satisfaction_tracking());
  expect_index_matches_recompute(state);
  for (std::size_t i = 0; i < moves; ++i) {
    const auto u = static_cast<UserId>(uniform_u64_below(rng, n));
    // Includes self-moves (r == current resource), which must be no-ops.
    ResourceId r = 0;
    if (instance.restricted()) {
      const std::span<const ResourceId> reachable = instance.reachable(u);
      r = reachable[uniform_u64_below(rng, reachable.size())];
    } else {
      r = static_cast<ResourceId>(uniform_u64_below(rng, m));
    }
    state.move(u, r);
    ASSERT_EQ(state.count_satisfied(), brute_force_satisfied(state))
        << "after move " << i << " of user " << u << " to " << r;
    if ((i + 1) % set_check_stride == 0) expect_index_matches_recompute(state);
  }
  expect_index_matches_recompute(state);
}

/// A start on a restricted instance: every user on a random reachable
/// resource.
State random_reachable(const Instance& instance, Xoshiro256& rng) {
  std::vector<ResourceId> assignment(instance.num_users());
  for (UserId u = 0; u < assignment.size(); ++u) {
    const std::span<const ResourceId> reachable = instance.reachable(u);
    assignment[u] = reachable[uniform_u64_below(rng, reachable.size())];
  }
  return State(instance, std::move(assignment));
}

TEST(SatisfactionIndexProperty, UnitModelMatchesRecomputeOverRandomMoves) {
  // n = 512 is a whole number of bitmap words; 509 leaves a partial word.
  for (const std::size_t n : {512u, 509u}) {
    for (const std::uint64_t seed : {1u, 7u, 99u}) {
      Xoshiro256 rng(seed);
      const Instance instance = make_uniform_feasible(n, 32, 0.3, 1.5, rng);
      State state = State::random(instance, rng);
      random_walk(state, rng);
    }
  }
}

TEST(SatisfactionIndexProperty, UnitModelFromCongestedStart) {
  // all_on(0) makes resource 0 massively over threshold: the first moves
  // flip long runs of users at once, stressing the bucket updates.
  Xoshiro256 rng(5);
  const Instance instance = make_uniform_feasible(512, 16, 0.2, 1.5, rng);
  State state = State::all_on(instance, 0);
  random_walk(state, rng);
}

// Beyond flat thresholds the bucket key (r, t) varies in t across resources
// too: related capacities scale t per resource, and a per-pair rate matrix
// or a restricted access graph gives every (user, resource) pair its own t.

TEST(SatisfactionIndexProperty, RelatedCapacitiesMatchRecompute) {
  for (const std::uint64_t seed : {2u, 13u}) {
    Xoshiro256 rng(seed);
    const Instance instance =
        make_related_capacities(509, 24, 0.2, /*speed_classes=*/4, rng);
    ASSERT_FALSE(instance.flat_thresholds_available());
    State state = State::random(instance, rng);
    random_walk(state, rng);
  }
}

TEST(SatisfactionIndexProperty, PerPairRateMatrixMatchesRecompute) {
  for (const std::uint64_t seed : {4u, 31u}) {
    Xoshiro256 rng(seed);
    const Instance instance = make_zipf_rates(509, 24, 0.2, 1.1, rng);
    ASSERT_EQ(instance.rate_model().kind(), RateModelKind::kMatrix);
    ASSERT_FALSE(instance.restricted());
    State state = State::all_on(instance, 0);
    random_walk(state, rng);
  }
}

TEST(SatisfactionIndexProperty, RestrictedInstanceMatchesRecompute) {
  for (const std::uint64_t seed : {6u, 47u}) {
    Xoshiro256 rng(seed);
    const Instance instance = make_clustered_bipartite(
        509, 24, /*clusters=*/4, /*extra=*/2, 0.2, rng);
    ASSERT_TRUE(instance.restricted());
    State state = random_reachable(instance, rng);
    random_walk(state, rng);
  }
}

TEST(SatisfactionIndexProperty, CrowdedSmallTableMatchesRecompute) {
  // The bucket table holds at least 2n slots, at least 16, so n = 8 and
  // n = 30 give 16- and 64-slot tables. Per-resource capacities times a few
  // requirement classes make up to min(n, m * classes) distinct live keys —
  // a table kept near its load limit, where probe runs often cross the
  // table end, so erasing a bucket's last member backward-shifts across the
  // wrap — while several users share each key, so erases hit the head, the
  // middle and the tail of a bucket list. Every move is checked against the
  // recompute.
  struct Shape {
    std::size_t n;
    std::size_t m;
    std::size_t classes;
  };
  for (const Shape shape : {Shape{8, 8, 4}, Shape{30, 6, 3}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      Xoshiro256 rng(seed);
      std::vector<double> capacities(shape.m);
      for (std::size_t r = 0; r < shape.m; ++r)
        capacities[r] = static_cast<double>(2 + 3 * r);
      std::vector<double> requirements(shape.n);
      for (std::size_t u = 0; u < shape.n; ++u)
        requirements[u] = 1.0 / static_cast<double>(
                                    1 + uniform_u64_below(rng, shape.classes));
      const Instance instance(std::move(capacities), std::move(requirements));
      State state = State::random(instance, rng);
      random_walk(state, rng, /*moves=*/4000, /*set_check_stride=*/1);
    }
  }
}

TEST(SatisfactionIndexProperty, EnumerationStopsWhenTheVisitorDeclines) {
  Xoshiro256 rng(3);
  const Instance instance = make_uniform_feasible(300, 8, 0.2, 1.5, rng);
  for (const bool tracked : {false, true}) {
    State state = State::all_on(instance, 0);
    if (tracked) state.enable_satisfaction_tracking();
    const std::vector<UserId> all = brute_force_unsatisfied(state);
    ASSERT_GT(all.size(), 3u);
    std::vector<UserId> seen;
    EXPECT_FALSE(state.for_each_unsatisfied([&](UserId u) {
      seen.push_back(u);
      return seen.size() < 3;
    }));
    EXPECT_EQ(seen, std::vector<UserId>(all.begin(), all.begin() + 3));
  }
}

TEST(SatisfactionIndexProperty, TrackingEnabledMidSequenceAgrees) {
  // Enabling the index after untracked moves must rebuild to the same set a
  // tracked-from-the-start walk reaches (the index is a pure function of the
  // current assignment), and the untracked scan enumerates the same users.
  Xoshiro256 rng(21);
  const Instance instance = make_uniform_feasible(256, 16, 0.3, 1.5, rng);
  State tracked = State::round_robin(instance);
  State late = State::round_robin(instance);
  tracked.enable_satisfaction_tracking();
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto u = static_cast<UserId>(uniform_u64_below(rng, 256));
    const auto r = static_cast<ResourceId>(uniform_u64_below(rng, 16));
    tracked.move(u, r);
    late.move(u, r);
  }
  const std::vector<UserId> untracked = enumerated(late);
  late.enable_satisfaction_tracking();
  EXPECT_EQ(enumerated(tracked), enumerated(late));
  EXPECT_EQ(enumerated(late), untracked);
  EXPECT_EQ(tracked.count_satisfied(), late.count_satisfied());
}

// ---- scope: one satisfaction mechanism per engine mode ----

/// Runs `kind` on a fresh all-on-one state and reports whether the engine
/// left the state tracked.
bool tracked_after_run(const std::string& kind, EngineMode mode) {
  Xoshiro256 rng(17);
  const Instance instance = make_uniform_feasible(400, 10, 0.3, 1.5, rng);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = kind;
  spec.lambda = 0.5;
  spec.ttl = 2;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.mode = mode;
  config.max_rounds = 20000;
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_TRUE(result.converged) << kind;
  return state.satisfaction_tracking();
}

TEST(SatisfactionIndexScope, OnlyActiveRunsBuildTheIndex) {
  // Dense runs read satisfaction through the SoA scans.
  EXPECT_FALSE(tracked_after_run("uniform", EngineMode::kDense));
  EXPECT_FALSE(tracked_after_run("admission", EngineMode::kDense));
  // Step()-only protocols never iterate an active set, whatever the mode.
  EXPECT_FALSE(tracked_after_run("seq-br", EngineMode::kActive));
  EXPECT_FALSE(tracked_after_run("seq-br-rr", EngineMode::kActive));
  EXPECT_FALSE(tracked_after_run("cached", EngineMode::kActive));
  // berenbrink's satisfied users act, so its active-mode run is dense.
  EXPECT_FALSE(tracked_after_run("berenbrink", EngineMode::kActive));
  // An active run of an active-set-compatible protocol builds it.
  EXPECT_TRUE(tracked_after_run("uniform", EngineMode::kActive));
  EXPECT_TRUE(tracked_after_run("admission", EngineMode::kActive));
}

template <typename T>
concept HasSatisfactionIndex = requires(T& t) {
  t.enable_satisfaction_tracking();
  t.satisfaction_tracking();
};

TEST(SatisfactionIndexScope, WeightedRunsHaveNoIndex) {
  // The weighted model reads satisfaction by direct scans only: the index
  // API does not exist on WeightedState, and weighted runs still converge.
  static_assert(!HasSatisfactionIndex<WeightedState>);
  static_assert(HasSatisfactionIndex<State>);
  Xoshiro256 rng(9);
  const WeightedInstance instance =
      make_weighted_feasible(256, 8, 0.3, /*weight_classes=*/3,
                             /*skew=*/0.5, rng);
  WeightedState state = WeightedState::all_on(instance, 0);
  WeightedAdmissionControl protocol;
  const EngineResult result = Engine().run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_satisfied, state.count_satisfied());
  state.check_invariants();
}

}  // namespace
}  // namespace qoslb
