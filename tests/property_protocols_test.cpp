// Cross-cutting property tests: one TEST_P grid runs every registry protocol
// against every instance family and start, checking the invariants that must
// hold for ANY protocol in this framework:
//   I1  load vector always matches the assignment (State::check_invariants)
//   I2  counter sanity: grants+rejects == requests, grants == migrations for
//       gated protocols; messages() is consistent
//   I3  converged ⇒ the protocol's own stability predicate holds
//   I4  final satisfied count never exceeds the centralized greedy bound's
//       ceiling companion (the exact optimum on small instances)
//   I5  bit-identical reruns under the same seed
//   I6  satisfied users never migrate in a satisfaction protocol's round

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "core/engine.hpp"
#include "core/satisfaction.hpp"
#include "net/generators.hpp"
#include "opt/satisfaction.hpp"
#include "rng/splitmix64.hpp"

namespace qoslb {
namespace {

struct GridCase {
  const char* family;
  const char* protocol;
  const char* start;
};

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  std::string name = std::string(info.param.family) + "_" +
                     info.param.protocol + "_" + info.param.start;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

// Printed by field (the default prints the three pointers), so the ctest
// names CMake derives from the printout are identical across builds.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << c.family << '/' << c.protocol << '/' << c.start;
}

Instance build_family(const std::string& family, Xoshiro256& rng) {
  // The zipf family is kept small enough for the exact optimizer so that
  // invariant I4 actually fires on a family with a nontrivial optimum.
  if (family == "uniform") return make_uniform_feasible(96, 8, 0.3, 1.4, rng);
  if (family == "zipf") return make_zipf(24, 3, 1.1, rng);
  if (family == "related") return make_related_capacities(96, 8, 0.3, 3, rng);
  if (family == "overloaded") return make_overloaded(96, 8, 1.5);
  throw std::logic_error("unknown family");
}

State build_start(const std::string& start, const Instance& instance,
                  Xoshiro256& rng) {
  if (start == "all0") return State::all_on(instance, 0);
  if (start == "random") return State::random(instance, rng);
  return State::round_robin(instance);
}

class ProtocolGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ProtocolGrid, InvariantsHoldEndToEnd) {
  const GridCase& grid = GetParam();

  auto run_once = [&](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const Instance instance = build_family(grid.family, rng);
    const Graph graph = make_ring(static_cast<Vertex>(instance.num_resources()));
    State state = build_start(grid.start, instance, rng);

    ProtocolSpec spec;
    spec.kind = grid.protocol;
    spec.lambda = 0.5;
    spec.graph = &graph;
    const auto protocol = make_protocol(spec);

    EngineConfig config;
    config.max_rounds = 5000;  // capped: oscillating cases simply don't converge
    const EngineResult result = Engine(config).run(*protocol, state, rng);

    // I1 — structural consistency.
    state.check_invariants();

    // I2 — counter sanity.
    const Counters& c = result.counters;
    EXPECT_EQ(c.grants + c.rejects, c.migrate_requests);
    if (std::string(grid.protocol).find("admission") != std::string::npos) {
      EXPECT_EQ(c.grants, c.migrations);
    }
    EXPECT_EQ(c.messages(),
              2 * c.probes + c.migrate_requests + c.grants + c.rejects +
                  c.migrations);
    EXPECT_EQ(c.rounds, result.rounds);

    // I3 — converged means stable under the protocol's own notion.
    if (result.converged) {
      EXPECT_TRUE(protocol->is_stable(state));
    }

    // I4 — never above the exact optimum (identical-capacity families only;
    // the exact optimizer needs one threshold per user).
    if (instance.identical_capacities() && instance.num_users() <= 64) {
      std::vector<int> thresholds(instance.num_users());
      for (UserId u = 0; u < instance.num_users(); ++u)
        thresholds[u] = instance.threshold(u, 0);
      EXPECT_LE(static_cast<int>(result.final_satisfied),
                max_satisfied_identical(
                    thresholds, static_cast<int>(instance.num_resources())));
    }

    return std::make_tuple(result.rounds, result.final_satisfied,
                           c.migrations, c.messages());
  };

  // I5 — determinism.
  const auto a = run_once(derive_seed(1234, 1));
  const auto b = run_once(derive_seed(1234, 1));
  EXPECT_EQ(a, b);
}

constexpr const char* kFamilies[] = {"uniform", "zipf", "related", "overloaded"};
constexpr const char* kProtocols[] = {"seq-br",  "uniform",       "adaptive",
                                      "admission", "nbr-admission", "berenbrink"};
constexpr const char* kStarts[] = {"all0", "random"};

std::vector<GridCase> make_grid() {
  std::vector<GridCase> grid;
  for (const char* family : kFamilies)
    for (const char* protocol : kProtocols)
      for (const char* start : kStarts)
        grid.push_back(GridCase{family, protocol, start});
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, ProtocolGrid, ::testing::ValuesIn(make_grid()),
                         case_name);

// I6 — satisfied users never move in a satisfaction protocol's round,
// checked against per-round snapshots for each concurrent protocol.
class SatisfiedStayPut : public ::testing::TestWithParam<const char*> {};

TEST_P(SatisfiedStayPut, AcrossRounds) {
  Xoshiro256 rng(77);
  const Instance instance = make_uniform_feasible(64, 8, 0.2, 1.3, rng);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = GetParam();
  spec.lambda = 0.7;
  const auto protocol = make_protocol(spec);
  Counters counters;
  for (int round = 0; round < 60; ++round) {
    std::vector<ResourceId> before(state.num_users());
    std::vector<bool> was_satisfied(state.num_users());
    for (UserId u = 0; u < state.num_users(); ++u) {
      before[u] = state.resource_of(u);
      was_satisfied[u] = state.satisfied(u);
    }
    protocol->step(state, rng, counters);
    for (UserId u = 0; u < state.num_users(); ++u)
      if (was_satisfied[u]) {
        ASSERT_EQ(state.resource_of(u), before[u])
            << "round " << round << " user " << u;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SatisfiedStayPut,
                         ::testing::Values("uniform", "adaptive", "admission"));

}  // namespace
}  // namespace qoslb
