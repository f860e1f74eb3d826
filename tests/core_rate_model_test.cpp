// Heterogeneous rate models and restricted assignment (docs/heterogeneity.md):
//
//  - RateModel construction rejects empty reachable sets loudly;
//  - Instance::threshold(u, r) scales with rate(u, r) and is 0 on
//    unreachable pairs, so all-threshold-0 users simply never satisfy;
//  - the engine refuses restricted instances for protocols that did not opt
//    in, and reports churn that strands a user (every reachable resource
//    dead) instead of parking the user on a rate-0 pair;
//  - snapshot and instance-io round-trips preserve each rate-model form;
//  - the determinism contract extends to heterogeneous instances: matrix and
//    bipartite runs hash identically across {1,2,4,8} threads × dense/active;
//  - uniform instances reproduce the pre-redesign golden hashes, so the
//    Instance/RateModel API redesign is a strict extension.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/io/instance_io.hpp"
#include "core/protocols/registry.hpp"
#include "core/rate_model.hpp"
#include "core/snapshot.hpp"
#include "net/generators.hpp"
#include "net/graph.hpp"

using namespace qoslb;

namespace {

std::string thrown_message(const std::function<void()>& body) {
  try {
    body();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

/// 2-user / 2-resource matrix instance where user 1's rates are too small to
/// ever satisfy: threshold(1, r) == ⌊0.1 · 1 / 1.0⌋ == 0 on both resources.
Instance tiny_threshold0_instance() {
  return Instance({1.0, 1.0}, {0.5, 1.0},
                  RateModel::matrix(2, 2, {1.0, 1.0, 0.1, 0.1}));
}

}  // namespace

TEST(RateModel, MatrixRejectsEmptyReachableSet) {
  const std::string message = thrown_message([] {
    RateModel::matrix(2, 2, {1.0, 0.5, 0.0, 0.0});
  });
  EXPECT_NE(message.find("user 1 has an empty reachable set"),
            std::string::npos)
      << message;
}

TEST(RateModel, BipartiteRejectsUserWithoutEdges) {
  const std::string message = thrown_message([] {
    RateModel::bipartite(2, 2, {{0, 0, 1.0}, {0, 1, 0.5}});
  });
  EXPECT_NE(message.find("user 1 has an empty reachable set"),
            std::string::npos)
      << message;
}

TEST(RateModel, ThresholdScalesWithRateAndZeroMeansUnreachable) {
  // 8 users (thresholds clamp to n, so keep n above every expected value),
  // requirement 1/4: user 0 at rate 1 on the capacity-1 resource gets
  // ⌊1·1/0.25⌋ = 4, and its rate-0.5 on the capacity-2 resource also gives
  // ⌊0.5·2/0.25⌋ = 4; user 1's full rate there gives 8.
  std::vector<double> rates(8 * 2, 1.0);
  rates[0 * 2 + 1] = 0.5;
  const Instance matrix({1.0, 2.0}, std::vector<double>(8, 0.25),
                        RateModel::matrix(8, 2, std::move(rates)));
  EXPECT_EQ(matrix.threshold(0, 0), 4);
  EXPECT_EQ(matrix.threshold(0, 1), 4);
  EXPECT_EQ(matrix.threshold(1, 1), 8);
  EXPECT_FALSE(matrix.restricted());

  // Bipartite with no (0, 1) edge: rate 0, threshold 0, restricted.
  std::vector<RateEdge> edges = {{0, 0, 1.0}};
  for (UserId u = 1; u < 8; ++u)
    for (ResourceId r = 0; r < 2; ++r) edges.push_back({u, r, 1.0});
  const Instance graph({1.0, 1.0}, std::vector<double>(8, 0.25),
                       RateModel::bipartite(8, 2, std::move(edges)));
  EXPECT_EQ(graph.threshold(0, 0), 4);
  EXPECT_DOUBLE_EQ(graph.rate(0, 1), 0.0);
  EXPECT_EQ(graph.threshold(0, 1), 0);
  EXPECT_TRUE(graph.restricted());
  ASSERT_EQ(graph.reachable(0).size(), 1u);
  EXPECT_EQ(graph.reachable(0)[0], 0u);
}

TEST(RateModel, AllThreshold0UserRunsWithoutCrashAndStaysUnsatisfied) {
  const Instance instance = tiny_threshold0_instance();
  State state = State::round_robin(instance);
  ProtocolSpec spec;
  spec.kind = "uniform";
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 50;
  Xoshiro256 rng(99);
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_FALSE(state.satisfied(1));
  EXPECT_LT(result.final_satisfied, instance.num_users());
  state.check_invariants();
}

TEST(RateModel, EngineRejectsRestrictedInstanceForNonOptedInProtocol) {
  // "cached" is registered /*restricted=*/false: its probe cache samples the
  // whole live list and would migrate users onto rate-0 pairs.
  Xoshiro256 gen_rng(5);
  const Instance instance = make_clustered_bipartite(64, 16, 4, 1, 0.2, gen_rng);
  ASSERT_TRUE(instance.restricted());
  State state = State::random(instance, gen_rng);
  ProtocolSpec spec;
  spec.kind = "cached";
  const auto protocol = make_protocol(spec);
  Xoshiro256 rng(99);
  const std::string message = thrown_message([&] {
    Engine().run(*protocol, state, rng);
  });
  EXPECT_NE(message.find("does not support restricted-assignment instances"),
            std::string::npos)
      << message;
}

TEST(RateModel, ChurnEvictingOnlyReachableResourceReportsStrandedUser) {
  // User 0 reaches only resource 0; everyone else reaches everything. A
  // churn failure of resource 0 leaves user 0 nowhere to go.
  std::vector<RateEdge> edges = {{0, 0, 1.0}};
  for (UserId u = 1; u < 8; ++u)
    for (ResourceId r = 0; r < 3; ++r) edges.push_back({u, r, 1.0});
  const Instance instance(std::vector<double>(3, 1.0),
                          std::vector<double>(8, 0.1),
                          RateModel::bipartite(8, 3, std::move(edges)));
  Xoshiro256 start_rng(11);
  State state = State::random(instance, start_rng);
  ProtocolSpec spec;
  spec.kind = "uniform";
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 50;
  config.churn.fail(1, 0);
  Xoshiro256 rng(99);
  const std::string message = thrown_message([&] {
    Engine(config).run(*protocol, state, rng);
  });
  EXPECT_NE(message.find("churn stranded user 0"), std::string::npos)
      << message;
  EXPECT_NE(message.find("every reachable resource is dead"),
            std::string::npos)
      << message;
}

TEST(RateModel, SnapshotRoundTripsEveryForm) {
  const RateModel forms[] = {
      RateModel::uniform(),
      RateModel::matrix(2, 3, {1.0, 0.5, 0.25, 1.0, 1.0, 1.0}),
      RateModel::bipartite(2, 3, {{0, 0, 1.0}, {0, 2, 0.5}, {1, 1, 0.75}}),
  };
  for (const RateModel& form : forms) {
    SnapshotV1 snapshot;
    snapshot.protocol = "uniform";
    snapshot.next_round = 7;
    snapshot.master_seed = 123;
    snapshot.capacities = {1.0, 1.0, 2.0};
    snapshot.requirements = {0.5, 0.25};
    snapshot.rate_model = form;
    snapshot.assignment = {0, 1};
    snapshot.live = {1, 1, 1};

    std::stringstream io;
    write_snapshot(io, snapshot);
    const SnapshotV1 restored = read_snapshot(io);
    EXPECT_EQ(restored.rate_model.kind(), form.kind());
    const Instance instance = restored.make_instance();
    for (UserId u = 0; u < 2; ++u)
      for (ResourceId r = 0; r < 3; ++r)
        EXPECT_DOUBLE_EQ(instance.rate(u, r), form.rate(u, r))
            << "kind=" << static_cast<int>(form.kind()) << " u=" << u
            << " r=" << r;
  }
}

TEST(RateModel, InstanceIoRoundTripsEveryForm) {
  Xoshiro256 gen_rng(3);
  const Instance instances[] = {
      make_uniform_feasible(16, 4, 0.1, 1.5, gen_rng),
      make_zipf_rates(16, 4, 0.1, 1.1, gen_rng),
      make_clustered_bipartite(16, 4, 2, 1, 0.1, gen_rng),
  };
  for (const Instance& instance : instances) {
    std::stringstream io;
    write_instance(io, instance);
    const Instance restored = read_instance(io);
    ASSERT_EQ(restored.num_users(), instance.num_users());
    ASSERT_EQ(restored.num_resources(), instance.num_resources());
    EXPECT_EQ(restored.rate_model().kind(), instance.rate_model().kind());
    EXPECT_EQ(restored.restricted(), instance.restricted());
    for (UserId u = 0; u < instance.num_users(); ++u)
      for (ResourceId r = 0; r < instance.num_resources(); ++r) {
        EXPECT_DOUBLE_EQ(restored.rate(u, r), instance.rate(u, r));
        EXPECT_EQ(restored.threshold(u, r), instance.threshold(u, r));
      }
  }
}

namespace {

/// Worst-case restricted-safe start: every user on its first reachable
/// resource (resource 0 when unrestricted).
State adversarial_start(const Instance& instance) {
  std::vector<ResourceId> assignment(instance.num_users(), 0);
  if (instance.restricted())
    for (UserId u = 0; u < assignment.size(); ++u)
      assignment[u] = instance.reachable(u).front();
  return State(instance, std::move(assignment));
}

struct RunOutcome {
  std::uint64_t hash = 0;
  std::uint64_t rounds = 0;
};

RunOutcome run_hetero(const Instance& instance, const ProtocolSpec& spec,
                      EngineMode mode, std::size_t threads) {
  State state = adversarial_start(instance);
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 300;
  config.seed = 7;
  config.threads = threads;
  config.mode = mode;
  Xoshiro256 rng(99);
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  state.check_invariants();
  return {state_hash(state), result.rounds};
}

}  // namespace

// Acceptance: same hashes across {1,2,4,8} threads × dense/active for EVERY
// restricted-assignment-compatible protocol, on a matrix and a bipartite
// instance. Non-active/sequential protocols fall back deterministically.
TEST(RateModel, HeterogeneousRunsAreThreadAndModeInvariant) {
  const Graph ring = make_ring(32);
  std::vector<ProtocolSpec> specs;
  for (const ProtocolInfo& info : protocol_registry()) {
    if (!info.restricted) continue;
    ProtocolSpec spec;
    spec.kind = info.name;
    spec.lambda = 0.5;
    spec.graph = &ring;
    specs.push_back(spec);
  }
  ASSERT_GE(specs.size(), 8u);  // seq-br(-rr), uniform, adaptive, admission,
                                // nbr-uniform, nbr-admission, berenbrink

  Xoshiro256 gen_rng(21);
  const Instance instances[] = {
      make_zipf_rates(2000, 32, 0.1, 1.1, gen_rng),
      make_clustered_bipartite(2000, 32, 8, 2, 0.1, gen_rng),
  };
  for (const Instance& instance : instances) {
    for (const ProtocolSpec& spec : specs) {
      const RunOutcome reference =
          run_hetero(instance, spec, EngineMode::kDense, 1);
      for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive}) {
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
          const RunOutcome outcome = run_hetero(instance, spec, mode, threads);
          EXPECT_EQ(outcome.hash, reference.hash)
              << spec.kind
              << " kind=" << static_cast<int>(instance.rate_model().kind())
              << " mode=" << (mode == EngineMode::kDense ? "dense" : "active")
              << " threads=" << threads;
          EXPECT_EQ(outcome.rounds, reference.rounds) << spec.kind;
        }
      }
    }
  }
}

TEST(RateModel, WeightedInstanceAppliesSpeedsToThresholds) {
  // 3 jobs × 2 nodes, node 1 serves job 0 at speed 0.5: its threshold there
  // halves, everyone else keeps ⌊s_r/q_u⌋.
  const Instance cluster(
      {8.0, 8.0}, {1.0, 1.0, 1.0},
      RateModel::matrix(3, 2, {1.0, 0.5, 1.0, 1.0, 1.0, 1.0}), {1, 2, 4});
  EXPECT_EQ(cluster.threshold(0, 0), 7);  // clamped to total_weight
  EXPECT_EQ(cluster.threshold(0, 1), 4);
  EXPECT_EQ(cluster.threshold(1, 1), 7);
  EXPECT_DOUBLE_EQ(cluster.rate(0, 1), 0.5);
}

TEST(RateModel, WeightedInstanceRejectsRestrictedRates) {
  const std::string message = thrown_message([] {
    Instance({1.0, 1.0}, {0.5, 0.5},
             RateModel::matrix(2, 2, {1.0, 0.0, 1.0, 1.0}), {1, 1});
  });
  EXPECT_NE(message.find("strictly positive rates"), std::string::npos)
      << message;
}

TEST(RateModel, UniformInstancesReproducePreRedesignGoldenHashes) {
  // Captured on the pre-RateModel build (PR 6 head): the redesigned API must
  // leave every uniform-rate realization bit-identical.
  struct Golden {
    const char* kind;
    std::uint64_t hash;
    std::uint64_t rounds;
  };
  const Golden goldens[] = {
      {"uniform", 0x69c0ce1d5a5e6fc5ULL, 2},
      {"adaptive", 0xadd5f7ff4335ba4bULL, 2},
      {"admission", 0x1c08a4dca769f23dULL, 2},
      {"seq-br", 0x3b30342ba44aa10bULL, 77},
      {"seq-br-rr", 0x25d76e835147a3a9ULL, 78},
      {"berenbrink", 0xf105449203e7f958ULL, 17},
      {"cached", 0x09b34f95b0018200ULL, 2},
  };
  for (const Golden& golden : goldens) {
    Xoshiro256 gen_rng(42);
    const Instance instance = make_uniform_feasible(5000, 64, 0.05, 1.5, gen_rng);
    State state = State::random(instance, gen_rng);
    ProtocolSpec spec;
    spec.kind = golden.kind;
    const auto protocol = make_protocol(spec);
    EngineConfig config;
    config.max_rounds = 200;
    config.seed = 7;
    config.threads = 1;
    Xoshiro256 run_rng(99);
    const EngineResult result = Engine(config).run(*protocol, state, run_rng);
    EXPECT_EQ(state_hash(state), golden.hash) << golden.kind;
    EXPECT_EQ(result.rounds, golden.rounds) << golden.kind;
  }
}

TEST(RateModel, UniformChurnRunReproducesPreRedesignGoldenHash) {
  Xoshiro256 gen_rng(42);
  const Instance instance = make_uniform_feasible(5000, 64, 0.05, 1.5, gen_rng);
  State state = State::random(instance, gen_rng);
  ProtocolSpec spec;
  spec.kind = "uniform";
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 200;
  config.seed = 7;
  config.threads = 4;
  config.mode = EngineMode::kActive;
  config.churn.fail(5, 3);
  config.churn.recover(40, 3);
  Xoshiro256 run_rng(99);
  const EngineResult result = Engine(config).run(*protocol, state, run_rng);
  EXPECT_EQ(state_hash(state), 0x26e846e89cc9e658ULL);
  EXPECT_EQ(result.rounds, 41u);
}
