// E13 (Table 5) — Weighted users: convergence and fragmentation vs. weight
// skew.
//
// Claim validated: the protocols carry over to weighted users, but weight
// heterogeneity costs real performance — heavier maximum weights fragment
// capacity, so convergence slows and (at tight slack) a satisfied-weight gap
// opens even when the unit-weight analogue would fully satisfy. The sweep
// varies the number of power-of-two weight classes at fixed total load.
// Weighted instances run on the one round loop (per-(seed, round, user)
// Philox substreams), like every unit run.

#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "rng/splitmix64.hpp"

using namespace qoslb;
using namespace qoslb::bench;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = args.get_int("n", 2048);
  const long long m = args.get_int("m", 128);
  const double slack = args.get_double("slack", 0.15);
  args.finish();

  TablePrinter table({"protocol", "weight_classes", "max_weight", "rounds_mean",
                      "migrations_mean", "satisfied_frac",
                      "satisfied_weight_frac", "converged_frac"});
  std::cout << "E13: weighted users, skew sweep (n=" << n << ", m=" << m
            << ", slack=" << slack << ", all-on-one start, reps="
            << common.reps << ")\n";

  for (const char* kind : {"uniform", "admission"}) {
    for (const std::size_t classes : {1u, 2u, 4u, 6u}) {
      RunningStat rounds, migrations, satisfied_frac, weight_frac;
      std::size_t converged = 0;
      for (std::size_t rep = 0; rep < common.reps; ++rep) {
        Xoshiro256 rng(derive_seed(common.seed + classes, rep));
        const Instance instance = make_weighted_feasible(
            static_cast<std::size_t>(n), static_cast<std::size_t>(m), slack,
            classes, 1.0, rng);
        State state = State::all_on(instance, 0);
        ProtocolSpec spec;
        spec.kind = kind;
        spec.lambda = std::string(kind) == "uniform" ? 0.5 : 1.0;
        const auto protocol = make_protocol(spec);
        EngineConfig config;
        config.max_rounds = 30000;
        const EngineResult result = Engine(config).run(*protocol, state, rng);
        if (result.converged) ++converged;
        rounds.add(static_cast<double>(result.rounds));
        migrations.add(static_cast<double>(result.counters.migrations));
        satisfied_frac.add(static_cast<double>(result.final_satisfied) /
                           static_cast<double>(instance.num_users()));
        weight_frac.add(static_cast<double>(result.final_satisfied_weight) /
                        static_cast<double>(instance.total_weight()));
      }
      table.cell(kind)
          .cell(static_cast<long long>(classes))
          .cell(static_cast<long long>(1u << (classes - 1)))
          .cell(rounds.mean())
          .cell(migrations.mean())
          .cell(satisfied_frac.mean())
          .cell(weight_frac.mean())
          .cell(static_cast<double>(converged) /
                static_cast<double>(common.reps))
          .end_row();
    }
  }

  emit(table, common);
  return 0;
}
