// Property grid for the weighted model, mirroring property_protocols_test:
// structural consistency, counter sanity, stability on convergence,
// determinism, and the weighted-specific invariant that total weight is
// conserved across every round. Weighted instances run the registry's
// weight-aware protocols on the one round loop.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <tuple>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "rng/splitmix64.hpp"

namespace qoslb {
namespace {

struct WeightedCase {
  int protocol;       // 0 = uniform, 1 = admission, 2 = seq-br
  std::size_t classes;
  double slack;
  bool concentrated;
};

// Printed by field (the default dumps the raw bytes, padding included), so
// the ctest names CMake derives from the printout are identical across
// builds.
void PrintTo(const WeightedCase& c, std::ostream* os) {
  *os << "protocol=" << c.protocol << " classes=" << c.classes
      << " slack=" << c.slack << " concentrated=" << c.concentrated;
}

std::unique_ptr<Protocol> build(int kind) {
  static const char* const kKinds[] = {"uniform", "admission", "seq-br"};
  ProtocolSpec spec;
  spec.kind = kKinds[kind];
  spec.lambda = kind == 0 ? 0.5 : 1.0;
  return make_protocol(spec);
}

class WeightedGrid : public ::testing::TestWithParam<WeightedCase> {};

TEST_P(WeightedGrid, InvariantsHoldEndToEnd) {
  const WeightedCase& grid = GetParam();

  auto run_once = [&](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const Instance instance =
        make_weighted_feasible(120, 10, grid.slack, grid.classes, 1.0, rng);
    State state = grid.concentrated ? State::all_on(instance, 0)
                                    : State::random(instance, rng);
    const std::int64_t total_before =
        std::accumulate(state.loads().begin(), state.loads().end(),
                        std::int64_t{0});

    const auto protocol = build(grid.protocol);
    EngineConfig config;
    config.max_rounds = 20000;
    const EngineResult result = Engine(config).run(*protocol, state, rng);

    state.check_invariants();
    const std::int64_t total_after =
        std::accumulate(state.loads().begin(), state.loads().end(),
                        std::int64_t{0});
    EXPECT_EQ(total_before, total_after);  // weight conservation
    EXPECT_EQ(total_after,
              static_cast<std::int64_t>(instance.total_weight()));

    const Counters& c = result.counters;
    EXPECT_EQ(c.grants + c.rejects, c.migrate_requests);
    if (grid.protocol == 1) {
      EXPECT_EQ(c.grants, c.migrations);
    }
    if (result.converged) {
      EXPECT_TRUE(protocol->is_stable(state));
    }
    EXPECT_LE(result.final_satisfied_weight, instance.total_weight());

    return std::make_tuple(result.rounds, result.final_satisfied,
                           result.final_satisfied_weight, c.migrations);
  };

  const auto a = run_once(derive_seed(777, 3));
  const auto b = run_once(derive_seed(777, 3));
  EXPECT_EQ(a, b);
}

std::vector<WeightedCase> make_grid() {
  std::vector<WeightedCase> grid;
  for (int protocol : {0, 1, 2})
    for (std::size_t classes : {1u, 3u, 5u})
      for (double slack : {0.1, 0.4})
        for (bool concentrated : {true, false})
          grid.push_back(WeightedCase{protocol, classes, slack, concentrated});
  return grid;
}

// Named from the fields, not gtest's default (which dumps the struct's raw
// bytes, padding included), so test names are identical across builds.
std::string grid_name(const ::testing::TestParamInfo<WeightedCase>& info) {
  static const char* const kProtocols[] = {"uniform", "admission", "seqbr"};
  const WeightedCase& c = info.param;
  return std::string(kProtocols[c.protocol]) + "_classes" +
         std::to_string(c.classes) + "_slack" +
         std::to_string(static_cast<int>(c.slack * 100 + 0.5)) +
         (c.concentrated ? "_concentrated" : "_random");
}

INSTANTIATE_TEST_SUITE_P(Grid, WeightedGrid, ::testing::ValuesIn(make_grid()),
                         grid_name);

}  // namespace
}  // namespace qoslb
