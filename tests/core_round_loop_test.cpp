// Engine's one synchronous round loop (docs/engine.md).
//
// Two round bodies share Engine::drive:
//   1. step()-only protocols (seq-br, seq-br-rr, cached) run one
//      protocol.step(state, rng, counters) per round, inline, drawing from
//      the caller's RNG with no seed folded in — so the engine must be
//      indistinguishable from a hand-driven step loop, and config.threads
//      must not reach them;
//   2. step_users() protocols decide in fixed shards on the worker pool,
//      and every thread count reproduces the threads=1 realization.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "qoslb.hpp"

namespace qoslb {
namespace {

std::vector<ResourceId> assignment_of(const State& state) {
  std::vector<ResourceId> assignment(state.num_users());
  for (UserId u = 0; u < state.num_users(); ++u)
    assignment[u] = state.resource_of(u);
  return assignment;
}

void expect_counters_eq(const Counters& a, const Counters& b) {
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.migrate_requests, b.migrate_requests);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.rejects, b.rejects);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.rounds, b.rounds);
}

// ---- 1. step()-only protocols ----

// A tight instance: everyone starts on resource 0 and the thresholds leave
// little slack, so every step()-only kind needs several rounds.
Instance step_only_instance() {
  Xoshiro256 rng(17);
  return make_uniform_feasible(300, 12, 0.2, 1.05, rng);
}

std::unique_ptr<Protocol> make_kind(const std::string& kind) {
  ProtocolSpec spec;
  spec.kind = kind;
  spec.lambda = 0.5;
  spec.ttl = 2;
  return make_protocol(spec);
}

std::string kind_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

class StepOnlyRound : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    ASSERT_FALSE(make_kind(GetParam())->supports_step_users());
  }
};

TEST_P(StepOnlyRound, RunsUntilConvergedWithExactRoundCounts) {
  const Instance instance = step_only_instance();
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(5);
  const auto protocol = make_kind(GetParam());
  const EngineResult result = Engine().run(*protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.termination, Termination::kConverged);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.final_satisfied, state.num_users());
  EXPECT_GE(result.rounds, 2u);
  EXPECT_EQ(result.counters.rounds, result.rounds);
  EXPECT_GT(result.counters.migrations, 0u);
  state.check_invariants();
}

TEST_P(StepOnlyRound, AlreadyStableTakesZeroRoundsAndNoDraws) {
  const Instance instance = step_only_instance();
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(5);
  const auto protocol = make_kind(GetParam());
  ASSERT_TRUE(Engine().run(*protocol, state, rng).converged);
  const std::vector<ResourceId> settled = assignment_of(state);

  Xoshiro256 again(9);
  Xoshiro256 untouched(9);
  const EngineResult result = Engine().run(*protocol, state, again);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.counters.migrations, 0u);
  EXPECT_EQ(assignment_of(state), settled);
  EXPECT_EQ(again(), untouched());
}

TEST_P(StepOnlyRound, MaxRoundsCapsRun) {
  const Instance instance = step_only_instance();
  State full_state = State::all_on(instance, 0);
  Xoshiro256 full_rng(5);
  const auto protocol = make_kind(GetParam());
  const EngineResult full = Engine().run(*protocol, full_state, full_rng);
  ASSERT_GE(full.rounds, 2u);

  EngineConfig config;
  config.max_rounds = full.rounds - 1;
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(5);
  const EngineResult capped = Engine(config).run(*protocol, state, rng);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.termination, Termination::kRoundCap);
  EXPECT_EQ(capped.rounds, full.rounds - 1);
  EXPECT_EQ(capped.counters.rounds, full.rounds - 1);
  EXPECT_FALSE(capped.all_satisfied);
}

TEST_P(StepOnlyRound, TrajectoryRecordsEveryRound) {
  const Instance instance = step_only_instance();
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(5);
  const auto protocol = make_kind(GetParam());
  EngineConfig config;
  config.record_trajectory = true;
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.unsatisfied_trajectory.size(), result.rounds);
  EXPECT_EQ(result.unsatisfied_trajectory.back(), 0u);
  for (std::size_t r = 0; r + 1 < result.unsatisfied_trajectory.size(); ++r)
    EXPECT_GT(result.unsatisfied_trajectory[r], 0u) << "round " << r;
}

// The engine adds nothing to a step() round: no seed draw is folded from
// the caller's RNG, so the run is a plain loop of protocol.step calls and
// leaves the caller's stream exactly where that loop leaves it.
TEST_P(StepOnlyRound, MatchesAHandDrivenStepLoop) {
  const Instance instance = step_only_instance();
  State engine_state = State::all_on(instance, 0);
  Xoshiro256 engine_rng(23);
  const auto engine_protocol = make_kind(GetParam());
  const EngineResult result =
      Engine().run(*engine_protocol, engine_state, engine_rng);
  ASSERT_TRUE(result.converged);

  State state = State::all_on(instance, 0);
  Xoshiro256 rng(23);
  const auto protocol = make_kind(GetParam());
  protocol->reset();
  Counters counters;
  for (std::uint64_t r = 0; r < result.rounds; ++r) {
    protocol->step(state, rng, counters);
    ++counters.rounds;
  }
  EXPECT_EQ(assignment_of(state), assignment_of(engine_state));
  expect_counters_eq(counters, result.counters);
  EXPECT_EQ(rng(), engine_rng());
}

TEST_P(StepOnlyRound, ConfigThreadsDoesNotReachTheRound) {
  const Instance instance = step_only_instance();
  const auto run_with = [&](std::size_t threads, State& state) {
    EngineConfig config;
    config.threads = threads;
    config.shard_size = 16;
    Xoshiro256 rng(31);
    const auto protocol = make_kind(GetParam());
    return Engine(config).run(*protocol, state, rng);
  };
  State serial_state = State::all_on(instance, 0);
  const EngineResult serial = run_with(1, serial_state);
  State pooled_state = State::all_on(instance, 0);
  const EngineResult pooled = run_with(4, pooled_state);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(pooled.threads_used, 1u);
  EXPECT_EQ(assignment_of(pooled_state), assignment_of(serial_state));
  EXPECT_EQ(pooled.rounds, serial.rounds);
  expect_counters_eq(pooled.counters, serial.counters);
}

INSTANTIATE_TEST_SUITE_P(StepOnlyKinds, StepOnlyRound,
                         ::testing::Values(std::string("seq-br"),
                                           std::string("seq-br-rr"),
                                           std::string("cached")),
                         kind_name);

// ---- 2. sharded rounds on the worker pool ----

struct UniformRun {
  std::vector<ResourceId> assignment;
  EngineResult result;
};

UniformRun run_uniform(std::size_t threads, std::uint64_t seed,
                       std::uint64_t caller_seed = 1) {
  Xoshiro256 gen_rng(42);
  const Instance instance = make_uniform_feasible(512, 32, 0.2, 1.3, gen_rng);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.threads = threads;
  config.shard_size = 24;  // 22 shards: every worker gets several
  config.seed = seed;
  config.max_rounds = 50000;
  Xoshiro256 rng(caller_seed);
  UniformRun run;
  run.result = Engine(config).run(*protocol, state, rng);
  EXPECT_TRUE(run.result.converged);
  run.assignment = assignment_of(state);
  return run;
}

class ThreadCount : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadCount, BitIdenticalToSerialReference) {
  // Counter-based randomness keyed by (seed, round, user): every thread
  // count reproduces the inline threads=1 run exactly.
  const UniformRun serial = run_uniform(1, 99);
  const UniformRun parallel = run_uniform(GetParam(), 99);
  EXPECT_EQ(parallel.result.threads_used, GetParam());
  EXPECT_EQ(serial.assignment, parallel.assignment);
  EXPECT_EQ(serial.result.rounds, parallel.result.rounds);
  expect_counters_eq(serial.result.counters, parallel.result.counters);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCount,
                         ::testing::Values(2u, 3u, 4u, 8u),
                         ::testing::PrintToStringParamName());

TEST(ThreadedUniform, ConvergesAndSatisfies) {
  Xoshiro256 gen_rng(7);
  const Instance instance = make_uniform_feasible(1024, 64, 0.3, 1.0, gen_rng);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.threads = 4;
  config.shard_size = 64;
  config.max_rounds = 50000;
  Xoshiro256 rng(1);
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_EQ(result.threads_used, 4u);
  EXPECT_TRUE(result.all_satisfied);
  state.check_invariants();
}

TEST(ThreadedUniform, ConfigSeedAndCallerRngBothPickTheRealization) {
  const UniformRun base = run_uniform(2, 1, 1);
  EXPECT_EQ(run_uniform(2, 1, 1).assignment, base.assignment);
  EXPECT_NE(run_uniform(2, 2, 1).assignment, base.assignment);
  EXPECT_NE(run_uniform(2, 1, 2).assignment, base.assignment);
}

}  // namespace
}  // namespace qoslb
