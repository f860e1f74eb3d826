// qoslb::Engine — the unified run facade (PR 2) and the active-set round
// engine (PR 3).
//
// Covers the contracts the engine stands on:
//   1. mode/thread invariance: dense and active-set modes and every tested
//      thread count all produce bit-identical assignments, trajectories,
//      and counters, because randomness is keyed by (seed, round, user) and
//      commits merge in shard order;
//   2. step_users splitting equivalence: slicing a round's user list into
//      shards that share one RoundRng is exactly the default step() — each
//      user's draws come from its own substream;
//   3. facade regressions: Engine::run_async_admission matches the PR 1
//      fault-tolerant DES results, protocols without step_users run inline
//      on one thread whatever config.threads says, and they reject the
//      churn/checkpoint features only the sharded round body supports;
//   4. the (seed, round, user) substream golden values are frozen.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/generators.hpp"
#include "qoslb.hpp"
#include "sim/parallel_round_engine.hpp"
#include "sharded_cases.hpp"

namespace qoslb {
namespace {

Instance test_instance(std::size_t n, std::size_t m, std::uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  return make_uniform_feasible(n, m, 0.5, 1.5, rng);
}

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

// ---- 1. mode and thread-count invariance ----

class ModeThreadInvariance : public ::testing::TestWithParam<ShardedCase> {};

/// Dense and active mode at every tested thread count against the dense
/// t=1 run on `instance`.
void expect_mode_thread_invariance(const ShardedCase& param,
                                   const Instance& instance) {
  const Graph ring = make_ring(32);

  struct RunCase {
    EngineMode mode;
    std::size_t threads;
  };
  std::vector<RunCase> cases;
  cases.push_back({EngineMode::kDense, 1});  // reference
  for (const std::size_t threads : {2u, 4u, 8u})
    cases.push_back({EngineMode::kDense, threads});
  for (const std::size_t threads : {1u, 2u, 4u, 8u})
    cases.push_back({EngineMode::kActive, threads});

  std::vector<ResourceId> reference;
  EngineResult reference_result;
  bool have_reference = false;
  for (const RunCase& run : cases) {
    State state = State::all_on(instance, 0);
    ProtocolSpec spec;
    spec.kind = param.kind;
    spec.lambda = param.lambda;
    spec.graph = &ring;
    const auto protocol = make_protocol(spec);
    EngineConfig config;
    config.mode = run.mode;
    config.threads = run.threads;
    config.shard_size = 128;
    config.max_rounds = 400;
    config.record_trajectory = true;
    Xoshiro256 rng(77);
    const EngineResult result = Engine(config).run(*protocol, state, rng);
    state.check_invariants();  // incremental index == recompute

    if (!have_reference) {
      reference = assignment_of(state);
      reference_result = result;
      have_reference = true;
      continue;
    }
    const std::string label =
        (run.mode == EngineMode::kActive ? "active" : "dense") +
        std::string(" threads=") + std::to_string(run.threads);
    EXPECT_EQ(assignment_of(state), reference) << label;
    EXPECT_EQ(result.rounds, reference_result.rounds) << label;
    EXPECT_EQ(result.final_satisfied, reference_result.final_satisfied)
        << label;
    EXPECT_EQ(result.converged, reference_result.converged) << label;
    EXPECT_EQ(result.unsatisfied_trajectory,
              reference_result.unsatisfied_trajectory)
        << label;
    EXPECT_EQ(result.final_satisfied_weight,
              reference_result.final_satisfied_weight)
        << label;
    expect_counters_eq(result.counters, reference_result.counters);
  }
}

TEST_P(ModeThreadInvariance, DenseActiveAndEveryThreadCountMatch) {
  const ShardedCase& param = GetParam();
  expect_mode_thread_invariance(param, test_instance(2000, 32));
  // The weighted input (weights up to 32) for every weight-aware kind: the
  // multi-bucket index sweep and the weight-sum admission prefix must keep
  // the realization thread- and mode-invariant too.
  ProtocolSpec spec;
  spec.kind = param.kind;
  const Graph ring = make_ring(32);
  spec.graph = &ring;
  if (!make_protocol(spec)->weighted_compatible()) return;
  Xoshiro256 rng(5);
  const Instance weighted =
      make_weighted_feasible(2000, 32, 0.3, /*weight_classes=*/6,
                             /*skew=*/0.5, rng);
  SCOPED_TRACE("weighted");
  expect_mode_thread_invariance(param, weighted);
}

INSTANTIATE_TEST_SUITE_P(AllShardedProtocols, ModeThreadInvariance,
                         ::testing::ValuesIn(sharded_cases()), case_name);

// ---- 2. step_users splitting is exactly step() ----

class StepUsersEquivalence : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(StepUsersEquivalence, SplitUserListsMatchFullStep) {
  const ShardedCase& param = GetParam();
  const Instance instance = test_instance(600, 16, 3);
  const Graph ring = make_ring(16);
  ProtocolSpec spec;
  spec.kind = param.kind;
  spec.lambda = param.lambda;
  spec.graph = &ring;
  const auto whole = make_protocol(spec);
  const auto split = make_protocol(spec);
  ASSERT_TRUE(whole->supports_step_users());

  State state_whole = State::all_on(instance, 0);
  State state_split = State::all_on(instance, 0);
  Xoshiro256 rng_whole(11), rng_split(11);
  Counters counters_whole, counters_split;
  const UserId n = static_cast<UserId>(instance.num_users());
  const UserId cut = n / 3;

  std::vector<UserId> users(n);
  std::iota(users.begin(), users.end(), UserId{0});

  for (int round = 0; round < 12; ++round) {
    whole->step(state_whole, rng_whole, counters_whole);

    // Two shards of the user list under the same round key draw the exact
    // same per-user substreams as the full-range default step().
    const std::vector<int> snapshot = state_split.loads();
    std::vector<MigrationBuffer> shards(2);
    const RoundRng streams(rng_split(), 0);
    split->step_users(state_split, snapshot, users.data(), cut, shards[0],
                      streams, counters_split);
    split->step_users(state_split, snapshot, users.data() + cut, n - cut,
                      shards[1], streams, counters_split);
    split->commit_round(state_split, shards, counters_split);

    ASSERT_EQ(assignment_of(state_split), assignment_of(state_whole))
        << param.kind << " diverged at round " << round;
  }
  expect_counters_eq(counters_split, counters_whole);
}

INSTANTIATE_TEST_SUITE_P(AllShardedProtocols, StepUsersEquivalence,
                         ::testing::ValuesIn(sharded_cases()), case_name);

// ---- 3. facade regressions ----

/// Same fault cocktail as core_async_test's PR 1 golden scenario.
EngineConfig faulty_config(std::uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  config.random_start = false;
  config.faults.drop_all(0.10).dup_all(0.05).crash(/*agent=*/2, 5.0, 150.0);
  return config;
}

TEST(EngineAsync, MatchesFaultTolerantGoldenRun) {
  Xoshiro256 rng(1);
  const Instance instance = make_uniform_feasible(80, 8, 0.5, 1.0, rng);
  const EngineConfig config = faulty_config(7);
  const EngineResult engine_result = Engine(config).run_async_admission(instance);
  const AsyncRunResult direct = run_async_admission(instance, config);

  // PR 1 invariants: the loss-tolerant protocol drives the faulty run to
  // full satisfaction and quiesces.
  EXPECT_TRUE(engine_result.all_satisfied);
  EXPECT_TRUE(engine_result.converged);
  EXPECT_EQ(engine_result.termination, Termination::kQuiesced);
  EXPECT_EQ(engine_result.final_satisfied, 80u);
  EXPECT_GT(engine_result.faults.dropped, 0u);
  EXPECT_GT(engine_result.counters.retries, 0u);

  // And the facade is a faithful view of the DES run.
  EXPECT_EQ(engine_result.final_satisfied, direct.satisfied);
  EXPECT_EQ(engine_result.events, direct.events);
  EXPECT_DOUBLE_EQ(engine_result.virtual_time, direct.virtual_time);
  EXPECT_EQ(engine_result.counters.messages(), direct.counters.messages());
  EXPECT_EQ(engine_result.faults.dropped, direct.faults.dropped);
}

TEST(EngineSharded, FallsBackToSequentialWithoutStepUsers) {
  const Instance instance = test_instance(400, 16, 5);
  ProtocolSpec spec;
  spec.kind = "seq-br";  // no step_users implementation

  EngineConfig sharded;
  sharded.threads = 4;
  State state_sharded = State::all_on(instance, 0);
  Xoshiro256 rng_sharded(21);
  const auto p1 = make_protocol(spec);
  const EngineResult a = Engine(sharded).run(*p1, state_sharded, rng_sharded);
  EXPECT_EQ(a.threads_used, 1u);

  State state_seq = State::all_on(instance, 0);
  Xoshiro256 rng_seq(21);
  const auto p2 = make_protocol(spec);
  const EngineResult b = Engine(EngineConfig{}).run(*p2, state_seq, rng_seq);
  EXPECT_EQ(assignment_of(state_sharded), assignment_of(state_seq));
  EXPECT_EQ(a.rounds, b.rounds);
}

// Churn events and checkpoints fire at the round-boundary cut of the sharded
// round body; a step() round has none, so the engine refuses them up front.
TEST(EngineSharded, StepOnlyProtocolRejectsChurnPlan) {
  const Instance instance = test_instance(100, 8, 5);
  ProtocolSpec spec;
  spec.kind = "seq-br";
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.churn.fail(/*round=*/2, /*resource=*/3);
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(1);
  EXPECT_THROW(Engine(config).run(*protocol, state, rng),
               std::invalid_argument);
}

TEST(EngineSharded, StepOnlyProtocolRejectsSnapshotRounds) {
  const Instance instance = test_instance(100, 8, 5);
  ProtocolSpec spec;
  spec.kind = "seq-br";
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.snapshot_rounds = {1};
  config.snapshot_sink = [](const SnapshotV1&) {};
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(1);
  EXPECT_THROW(Engine(config).run(*protocol, state, rng),
               std::invalid_argument);
}

TEST(EngineTermination, RoundCapAndConvergedAreDistinguished) {
  const Instance instance = test_instance(400, 16, 5);

  // A barely-damped uniform sampler cannot absorb the all-on-one pile in a
  // single round, so the capped run must report kRoundCap.
  ProtocolSpec slow;
  slow.kind = "uniform";
  slow.lambda = 0.1;
  EngineConfig capped;
  capped.max_rounds = 1;
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(3);
  const auto p1 = make_protocol(slow);
  const EngineResult capped_result = Engine(capped).run(*p1, state, rng);
  EXPECT_FALSE(capped_result.converged);
  EXPECT_EQ(capped_result.termination, Termination::kRoundCap);

  ProtocolSpec fast;
  fast.kind = "admission";
  State state2 = State::all_on(instance, 0);
  Xoshiro256 rng2(3);
  const auto p2 = make_protocol(fast);
  const EngineResult full = Engine(EngineConfig{}).run(*p2, state2, rng2);
  EXPECT_TRUE(full.converged);
  EXPECT_EQ(full.termination, Termination::kConverged);
}

// ---- registry surface ----

TEST(Registry, EveryKindHasInfoAndBuilds) {
  const auto& infos = protocol_registry();
  const auto kinds = protocol_kinds();
  ASSERT_EQ(infos.size(), kinds.size());
  const Graph ring = make_ring(8);
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, kinds[i]);
    EXPECT_FALSE(infos[i].description.empty()) << infos[i].name;
    ProtocolSpec spec;
    spec.kind = infos[i].name;
    spec.graph = &ring;
    EXPECT_NE(make_protocol(spec), nullptr) << infos[i].name;
  }
}

TEST(Registry, ActiveSetFlagsMatchTheProtocols) {
  const Graph ring = make_ring(8);
  for (const ProtocolInfo& info : protocol_registry()) {
    ProtocolSpec spec;
    spec.kind = info.name;
    spec.graph = &ring;
    const auto protocol = make_protocol(spec);
    EXPECT_EQ(info.active_set, protocol->active_set_compatible()) << info.name;
    // active_set implies the sharded hooks exist at all.
    if (info.active_set) {
      EXPECT_TRUE(protocol->supports_step_users());
    }
  }
}

TEST(Registry, NewKindsForwardTheirKnobs) {
  ProtocolSpec cached;
  cached.kind = "cached";
  cached.lambda = 0.5;
  cached.ttl = 3;
  EXPECT_EQ(make_protocol(cached)->name(), "cached(lambda=0.5,ttl=3)");
}

// ---- substream scheme ----

// Frozen golden values of the (seed, round, user) keying (PR 3 re-keying).
// If these change, every sharded/active trajectory in the repo changes:
// that is a breaking re-keying and needs a deliberate golden regeneration.
TEST(RoundRng, PerUserStreamGoldenValues) {
  const RoundRng streams(/*master_seed=*/42, /*round=*/0);
  EXPECT_EQ(streams.round_key(), UINT64_C(0xBDD732262FEB6E95));
  PhiloxEngine user7 = streams.user_stream(7);
  EXPECT_EQ(user7(), UINT64_C(0x4C925A257DB22086));
  EXPECT_EQ(user7(), UINT64_C(0x1B9A5AB6CF16A8C3));
  EXPECT_EQ(RoundRng(42, 1).user_stream(7)(), UINT64_C(0x44DBAEE9715E047F));
  EXPECT_EQ(RoundRng(42, 0).user_stream(8)(), UINT64_C(0x8D2E921EAA7768CF));
  EXPECT_EQ(RoundRng(43, 0).user_stream(7)(), UINT64_C(0x672524B1553B9689));
}

TEST(RoundRng, StreamsAreSeekableAndPrivate) {
  const RoundRng streams(7, 3);
  // Re-materializing a user's stream restarts it at position 0: the draw
  // sequence is a pure function of (seed, round, user).
  PhiloxEngine a = streams.user_stream(123);
  const std::uint64_t first = a();
  const std::uint64_t second = a();
  PhiloxEngine b = streams.user_stream(123);
  EXPECT_EQ(b(), first);
  EXPECT_EQ(b(), second);
  // Distinct users draw from decorrelated streams.
  EXPECT_NE(streams.user_stream(124)(), first);
}

// ---- shard fan-out ----

TEST(ParallelRoundEngine, ForEachShardCoversEveryItemOnce) {
  for (const std::size_t threads : {1u, 3u}) {
    ParallelRoundEngine::Options options;
    options.threads = threads;
    options.shard_size = 7;
    ParallelRoundEngine engine(options);
    ASSERT_EQ(engine.num_shards(1000), 143u);
    // Each shard writes only its own slots, as the decide fan-out does.
    std::vector<int> visits(1000, 0);
    std::vector<std::size_t> shard_of(1000, 0);
    engine.for_each_shard(1000, [&](std::size_t shard, std::size_t begin,
                                    std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        ++visits[i];
        shard_of[i] = shard;
      }
    });
    EXPECT_EQ(visits, std::vector<int>(1000, 1)) << "threads=" << threads;
    for (std::size_t i = 0; i < 1000; ++i)
      ASSERT_EQ(shard_of[i], i / 7) << "threads=" << threads;
  }
}

TEST(ParallelRoundEngine, NumShardsRoundsUpAndNeverReturnsZero) {
  ParallelRoundEngine::Options options;
  options.threads = 1;
  options.shard_size = 7;
  const ParallelRoundEngine engine(options);
  EXPECT_EQ(engine.num_shards(0), 1u);
  EXPECT_EQ(engine.num_shards(1), 1u);
  EXPECT_EQ(engine.num_shards(7), 1u);
  EXPECT_EQ(engine.num_shards(8), 2u);
  EXPECT_EQ(engine.num_shards(14), 2u);
}

TEST(ParallelRoundEngine, EmptyInputRunsOneEmptyShard) {
  for (const std::size_t threads : {1u, 3u}) {
    ParallelRoundEngine::Options options;
    options.threads = threads;
    ParallelRoundEngine engine(options);
    int calls = 0;
    engine.for_each_shard(0, [&](std::size_t shard, std::size_t begin,
                                 std::size_t end) {
      ++calls;
      EXPECT_EQ(shard, 0u);
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 0u);
    });
    EXPECT_EQ(calls, 1) << "threads=" << threads;
  }
}

TEST(ParallelRoundEngine, ThreadsReportsTheParticipants) {
  ParallelRoundEngine::Options options;
  options.threads = 1;
  EXPECT_EQ(ParallelRoundEngine(options).threads(), 1u);
  options.threads = 3;
  EXPECT_EQ(ParallelRoundEngine(options).threads(), 3u);
  options.threads = 0;  // hardware concurrency
  EXPECT_GE(ParallelRoundEngine(options).threads(), 1u);
}

TEST(ParallelRoundEngine, RejectsZeroShardSize) {
  ParallelRoundEngine::Options options;
  options.threads = 1;
  options.shard_size = 0;
  EXPECT_THROW(ParallelRoundEngine{options}, std::invalid_argument);
}

TEST(ParallelRoundEngine, RethrowsAShardExceptionAndStaysUsable) {
  for (const std::size_t threads : {1u, 3u}) {
    ParallelRoundEngine::Options options;
    options.threads = threads;
    options.shard_size = 10;
    ParallelRoundEngine engine(options);
    EXPECT_THROW(engine.for_each_shard(
                     100,
                     [](std::size_t shard, std::size_t, std::size_t) {
                       if (shard == 4) throw std::runtime_error("boom");
                     }),
                 std::runtime_error)
        << "threads=" << threads;
    std::vector<int> visits(100, 0);
    engine.for_each_shard(100, [&](std::size_t, std::size_t begin,
                                   std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++visits[i];
    });
    EXPECT_EQ(visits, std::vector<int>(100, 1)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace qoslb
