// The weighted-user model (DESIGN.md §6) on the one Instance/State/Engine
// stack: per-user weights in Instance, loads in weight units, `load + w`
// in every probe and deviation test, and the input boundaries of the new
// field (zero weights, int overflow, and the paths that cannot carry
// weights: the async DES, write_instance and checkpoints).

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/io/instance_io.hpp"
#include "core/snapshot.hpp"
#include "qoslb.hpp"

namespace qoslb {
namespace {

Instance weighted(std::vector<double> capacities,
                  std::vector<double> requirements,
                  std::vector<std::uint32_t> weights) {
  return Instance(std::move(capacities), std::move(requirements), RateModel(),
                  std::move(weights));
}

Instance small_instance() {
  // 3 users: weights 1, 2, 4; thresholds (capacity 10): q=2 -> 5, q=1 -> 10.
  return weighted({10.0, 10.0}, {2.0, 1.0, 2.0}, {1, 2, 4});
}

std::unique_ptr<Protocol> build(const std::string& kind, double lambda = 1.0) {
  ProtocolSpec spec;
  spec.kind = kind;
  spec.lambda = lambda;
  return make_protocol(spec);
}

std::uint64_t fnv1a_assignment(const State& state) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (UserId u = 0; u < state.num_users(); ++u) {
    hash ^= state.resource_of(u);
    hash *= 1099511628211ULL;
  }
  return hash;
}

template <typename F>
std::string thrown_message(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(WeightedInstance, ThresholdInWeightUnits) {
  const Instance inst = small_instance();
  EXPECT_TRUE(inst.weighted());
  EXPECT_EQ(inst.threshold(0, 0), 5);
  EXPECT_EQ(inst.threshold(1, 0), 7);  // 10 clamped to total weight 7
  EXPECT_EQ(inst.threshold(2, 1), 5);
  EXPECT_EQ(inst.total_weight(), 7u);
  EXPECT_EQ(inst.weight(2), 4);
}

TEST(WeightedModel, UnitInstancesHaveUnitWeights) {
  const Instance inst({10.0, 10.0}, {2.0, 1.0, 2.0});
  EXPECT_FALSE(inst.weighted());
  EXPECT_EQ(inst.weight(1), 1);
  EXPECT_EQ(inst.total_weight(), 3u);
  EXPECT_EQ(inst.threshold(1, 0), 3);  // clamped to n
  // An empty weight vector is the unit instance.
  EXPECT_FALSE(weighted({10.0}, {1.0}, {}).weighted());
}

TEST(WeightedInstance, RejectsBadInput) {
  EXPECT_NE(thrown_message([] { weighted({1.0}, {1.0}, {0}); })
                .find("weights must be at least 1"),
            std::string::npos);
  EXPECT_THROW(weighted({1.0}, {1.0, 1.0}, {1}), std::invalid_argument);
  EXPECT_THROW(weighted({}, {1.0}, {1}), std::invalid_argument);
}

TEST(WeightedModel, RejectsTotalWeightAboveIntMax) {
  // Loads are int: three users of weight 2^30 sum to 3·2^30 > INT_MAX.
  constexpr std::uint32_t kHeavy = 1u << 30;
  EXPECT_NE(thrown_message([] {
              weighted({1.0}, {1.0, 1.0, 1.0}, {kHeavy, kHeavy, kHeavy});
            }).find("INT_MAX"),
            std::string::npos);
  // Exactly INT_MAX still fits.
  const Instance edge = weighted({1.0}, {1.0, 1.0}, {kHeavy, kHeavy - 1});
  EXPECT_EQ(edge.total_weight(), static_cast<std::uint64_t>(INT_MAX));
}

TEST(WeightedModel, AdmissionGrantsAtTotalWeightIntMax) {
  // Total weight exactly INT_MAX: the "no resident" gate of an empty
  // resource must not overflow into a gate that rejects everyone.
  constexpr std::uint32_t kHeavy = 1u << 30;
  const Instance inst = weighted({1.0, 1.0}, {1.0 / kHeavy, 1e-12},
                                 {kHeavy, kHeavy - 1});
  State state = State::all_on(inst, 0);
  ASSERT_FALSE(state.satisfied(0));
  std::vector<MigrationBuffer> shards(1);
  shards[0].requests = {{0, 1}};
  Counters counters;
  build("admission")->commit_round(state, shards, counters);
  EXPECT_EQ(state.resource_of(0), 1u);
  EXPECT_EQ(counters.grants, 1u);
  state.check_invariants();
}

TEST(WeightedState, LoadsAreWeightSums) {
  const Instance inst = small_instance();
  const State state(inst, {0, 0, 1});
  EXPECT_EQ(state.load(0), 3);
  EXPECT_EQ(state.load(1), 4);
  state.check_invariants();
}

TEST(WeightedState, MoveTransfersWeight) {
  const Instance inst = small_instance();
  State state(inst, {0, 0, 1});
  state.move(1, 1);
  EXPECT_EQ(state.load(0), 1);
  EXPECT_EQ(state.load(1), 6);
  state.check_invariants();
}

TEST(WeightedState, SatisfactionUsesWeightLoad) {
  const Instance inst = small_instance();
  // All on resource 0: load 7. Thresholds 5, 7, 5 -> only user 1 satisfied.
  const State state = State::all_on(inst, 0);
  EXPECT_FALSE(state.satisfied(0));
  EXPECT_TRUE(state.satisfied(1));
  EXPECT_FALSE(state.satisfied(2));
  EXPECT_EQ(state.count_satisfied(), 1u);
  EXPECT_EQ(state.satisfied_weight(), 2u);
}

TEST(WeightedState, SatisfiedAfterMoveCountsOwnWeight) {
  const Instance inst = small_instance();
  const State state = State::all_on(inst, 0);
  // User 2 (weight 4, threshold 5) moving to empty resource 1: load 4 <= 5.
  EXPECT_TRUE(satisfied_after_move(state, 2, 1));
  // User 0 (weight 1) staying put: load stays 7 > 5.
  EXPECT_FALSE(satisfied_after_move(state, 0, 0));
}

TEST(WeightedEquilibrium, DetectsDeviationAndStuckness) {
  const Instance inst = small_instance();
  const State crowded = State::all_on(inst, 0);
  EXPECT_FALSE(is_satisfaction_equilibrium(crowded));  // r1 free
  // Balanced: users 0,2 (weight 5) on r0; user 1 (weight 2) on r1.
  const State balanced(inst, {0, 1, 0});
  EXPECT_TRUE(is_satisfaction_equilibrium(balanced));
  EXPECT_EQ(balanced.count_satisfied(), 3u);
}

TEST(WeightedGenerator, FeasibleByConstruction) {
  Xoshiro256 rng(5);
  const Instance inst = make_weighted_feasible(100, 8, 0.3, 4, 1.0, rng);
  EXPECT_EQ(inst.num_users(), 100u);
  // Weights are powers of two within the class range.
  for (UserId u = 0; u < 100; ++u) {
    const int w = inst.weight(u);
    EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8) << w;
  }
  // The LPT packing argument: thresholds are uniform and at least the
  // peak packed load, so a protocol must be able to satisfy everyone.
  State state = State::all_on(inst, 0);
  Xoshiro256 run_rng(7);
  const auto protocol = build("admission");
  EngineConfig config;
  config.max_rounds = 100000;
  const EngineResult result = Engine(config).run(*protocol, state, run_rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
}

class WeightedProtocolKind : public ::testing::TestWithParam<int> {};

TEST_P(WeightedProtocolKind, ConvergesOnFeasibleInstances) {
  Xoshiro256 rng(11);
  const Instance inst = make_weighted_feasible(200, 16, 0.4, 4, 1.0, rng);
  State state = State::random(inst, rng);
  static const char* const kKinds[] = {"uniform", "admission", "seq-br"};
  const auto protocol = build(kKinds[GetParam()], GetParam() == 0 ? 0.5 : 1.0);
  EngineConfig config;
  config.max_rounds = 200000;
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_TRUE(result.converged) << protocol->name();
  EXPECT_TRUE(result.all_satisfied) << protocol->name();
  state.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Kinds, WeightedProtocolKind, ::testing::Values(0, 1, 2));

TEST(WeightedAdmission, SatisfiedCountNeverDecreases) {
  Xoshiro256 rng(13);
  const Instance inst = make_weighted_feasible(150, 10, 0.2, 5, 1.2, rng);
  State state = State::random(inst, rng);
  const auto protocol = build("admission");
  Counters counters;
  std::size_t satisfied = state.count_satisfied();
  for (int round = 0; round < 150; ++round) {
    protocol->step(state, rng, counters);
    const std::size_t now = state.count_satisfied();
    ASSERT_GE(now, satisfied) << "round " << round;
    satisfied = now;
  }
}

TEST(WeightedAdmission, AccountingConsistent) {
  Xoshiro256 rng(17);
  const Instance inst = make_weighted_feasible(100, 8, 0.3, 4, 1.0, rng);
  State state = State::all_on(inst, 0);
  const auto protocol = build("admission");
  Counters counters;
  for (int round = 0; round < 50; ++round) protocol->step(state, rng, counters);
  EXPECT_EQ(counters.grants + counters.rejects, counters.migrate_requests);
  EXPECT_EQ(counters.grants, counters.migrations);
}

TEST(WeightedAdmission, GrantsTheLongestPrefixWhoseWeightFits) {
  // One resource pair, capacity 6 (threshold 6 for q=1). r1 holds a weight-1
  // resident; three requesters of weight 4, 2, 1 (all thresholds 6) from r0.
  // Weight prefix from load 1: +4 = 5 fits, +2 = 7 does not — the prefix
  // stops there even though the weight-1 requester alone would fit.
  const Instance inst =
      weighted({6.0, 6.0}, {1.0, 1.0, 1.0, 1.0, 1.0}, {4, 2, 1, 1, 4});
  State state(inst, {0, 0, 0, 1, 0});
  std::vector<MigrationBuffer> shards(1);
  shards[0].requests = {{0, 1}, {1, 1}, {2, 1}};
  Counters counters;
  build("admission")->commit_round(state, shards, counters);
  EXPECT_EQ(state.resource_of(0), 1u);
  EXPECT_EQ(state.resource_of(1), 0u);
  EXPECT_EQ(state.resource_of(2), 0u);
  EXPECT_EQ(state.load(1), 5);
  EXPECT_EQ(counters.grants, 1u);
  EXPECT_EQ(counters.rejects, 2u);
}

TEST(WeightedRunner, AlreadyStableIsZeroRounds) {
  const Instance inst = small_instance();
  State state(inst, {0, 1, 0});
  Xoshiro256 rng(1);
  const auto protocol = build("admission");
  const EngineResult result = Engine().run(*protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.final_satisfied_weight, inst.total_weight());
}

TEST(WeightedRunner, MaxRoundsCap) {
  // Infeasible: two weight-4 users with threshold 5 on the only resource.
  const Instance inst = weighted({5.0}, {1.0, 1.0}, {4, 4});
  State state = State::all_on(inst, 0);
  Xoshiro256 rng(3);
  const auto protocol = build("uniform", 0.5);
  EngineConfig config;
  config.max_rounds = 10;
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  // Single resource: nobody can deviate, so the state is stuck-stable.
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.all_satisfied);
  EXPECT_EQ(result.final_satisfied_weight, 0u);
}

TEST(WeightedRunner, SeqBrReproducesTheRetiredWeightedBestResponse) {
  // Final assignment of the former serial weighted best-response loop
  // (weights up to 32, uniform rates, all-on-one start). seq-br draws the
  // same Xoshiro values for the same candidate lists, so the one round loop
  // must land on exactly the same assignment.
  Xoshiro256 rng(21);
  const Instance inst = make_weighted_feasible(200, 16, 0.3, 6, 1.0, rng);
  State state = State::all_on(inst, 0);
  const auto protocol = build("seq-br");
  EngineConfig config;
  config.max_rounds = 100000;
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_EQ(fnv1a_assignment(state), 0xe44060cd20f17452ULL);
  EXPECT_EQ(result.rounds, 183u);
  EXPECT_EQ(result.counters.migrations, 183u);
  EXPECT_TRUE(result.all_satisfied);
}

TEST(WeightedRunner, RejectsProtocolsWithoutWeightSupport) {
  Xoshiro256 rng(4);
  const Instance inst = make_weighted_feasible(64, 4, 0.3, 3, 1.0, rng);
  for (const char* kind : {"adaptive", "berenbrink", "cached"}) {
    State state = State::all_on(inst, 0);
    const auto protocol = build(kind);
    EXPECT_NE(thrown_message([&] { Engine().run(*protocol, state, rng); })
                  .find("does not support weighted instances"),
              std::string::npos)
        << kind;
  }
}

TEST(WeightedRunner, AsyncRunsRejectWeightedInstances) {
  Xoshiro256 rng(6);
  const Instance inst = make_weighted_feasible(64, 4, 0.3, 3, 1.0, rng);
  const Engine engine;
  EXPECT_THROW(engine.run_async_admission(inst), std::invalid_argument);
  EXPECT_THROW(engine.run_async_optimistic(inst, 0.5), std::invalid_argument);
}

TEST(WeightedRunner, WriteInstanceRejectsWeights) {
  std::ostringstream out;
  EXPECT_THROW(write_instance(out, small_instance()), std::invalid_argument);
}

TEST(WeightedRunner, CheckpointCaptureRejectsWeights) {
  const Instance inst = small_instance();
  const State state = State::all_on(inst, 0);
  const auto protocol = build("admission");
  EXPECT_NE(thrown_message([&] {
              capture_snapshot(*protocol, state, 1, 0, Counters{},
                               ChurnTracker{});
            }).find("weights"),
            std::string::npos);
}

TEST(WeightedFragmentation, HeavyUserBlockedByLightCrowd) {
  // One resource has room in total but the heavy user cannot fit: weights
  // fragment capacity. Resource capacity 6 (thresholds 6 for q=1): r1 holds
  // weight 3 of light users; heavy user weight 4 cannot join (3+4=7>6) even
  // though its own resource is overloaded.
  const Instance inst =
      weighted({6.0, 6.0}, {1.0, 1.0, 1.0, 1.0, 1.0}, {4, 4, 1, 1, 1});
  // r0: both heavies (load 8 > 6); r1: three lights (load 3).
  const State state(inst, {0, 0, 1, 1, 1});
  EXPECT_FALSE(state.satisfied(0));
  EXPECT_FALSE(satisfied_after_move(state, 0, 1));
  EXPECT_TRUE(is_satisfaction_equilibrium(state));
}

}  // namespace
}  // namespace qoslb
