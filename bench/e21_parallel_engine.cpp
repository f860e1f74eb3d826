// E21 — Sharded parallel round engine: throughput, speedup, determinism.
//
// Drives the *engine-level* parallelism added with qoslb::Engine (PR 2): the
// round's decide phase fans user shards out over the worker pool, each user
// drawing from a Philox substream keyed by (master seed, round, user), and
// the commit merges shard buffers in shard order. Results are therefore a
// pure function of the config — bit-identical for every thread count —
// which this bench verifies via an FNV-1a hash of the final assignment
// while timing users/sec per thread count. The t=1 row (inline, no pool)
// always runs, first: it is the determinism reference and the
// speedup_vs_t1 base, and is prepended when --threads omits 1.
//
// Acceptance target on a multi-core host: >= 2x users/sec at 4+ threads vs
// the sharded 1-thread run at n=1e6, m=1e4. On a single-core host the table
// quantifies pure threading overhead instead of speedup; the determinism
// check is equally meaningful there.
//
// Knobs: --n, --m (default n/100), --rounds (round cap), --threads=1,2,4,8,
// plus the common --reps/--seed/--csv. Writes BENCH_parallel.json. Each
// timed cell is best-of-reps after one untimed warmup (page-faults the
// instance and spawns the worker pool once). Exit status is non-zero when
// determinism fails, or when a sharded t>1 run that the host can actually
// parallelize (threads <= hardware_concurrency) is slower than the sharded
// t=1 run — the regression this bench exists to catch.

#include <algorithm>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "obs/clock.hpp"

using namespace qoslb;
using namespace qoslb::bench;

namespace {

std::uint64_t fnv1a_assignment(const State& state) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (UserId u = 0; u < state.num_users(); ++u) {
    std::uint64_t value = state.resource_of(u);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/3);
  const auto n = static_cast<std::size_t>(args.get_int("n", 1000000));
  const auto m = static_cast<std::size_t>(args.get_int("m", 0));
  const auto rounds_cap =
      static_cast<std::uint64_t>(args.get_int("rounds", 40));
  const auto thread_counts = args.get_int_list("threads", {1, 2, 4, 8});
  args.finish();
  const std::size_t resources = m != 0 ? m : std::max<std::size_t>(1, n / 100);

  Xoshiro256 gen_rng(common.seed);
  const Instance instance =
      make_uniform_feasible(n, resources, 0.5, 1.0, gen_rng);
  const unsigned hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());

  std::cout << "E21: sharded parallel round engine (n=" << n
            << ", m=" << resources << ", round cap=" << rounds_cap
            << ", hardware threads=" << hardware_threads
            << ", reps=" << common.reps << ")\n";

  TablePrinter table({"mode", "threads", "rounds", "seconds_best",
                      "users_per_sec", "speedup_vs_t1", "hash"});
  BenchJson json("e21_parallel_engine");

  // Every run gets the same uniform-sampling workload from the same
  // adversarial start; a fresh Xoshiro per run pins the sharded master seed,
  // so the final assignment must hash identically for every thread count.
  const auto run_once = [&](std::size_t threads,
                            double& seconds, std::uint64_t& rounds,
                            std::uint64_t& hash) {
    State state = State::all_on(instance, 0);
    ProtocolSpec spec;
    spec.kind = "uniform";
    spec.lambda = 0.5;
    const auto protocol = make_protocol(spec);
    EngineConfig config;
    config.max_rounds = rounds_cap;
    config.threads = threads;
    Xoshiro256 rng(common.seed);
    obs::Stopwatch watch;
    const EngineResult result = Engine(config).run(*protocol, state, rng);
    seconds = watch.seconds();
    rounds = result.rounds;
    hash = fnv1a_assignment(state);
  };

  const auto emit_row = [&](const std::string& mode, std::size_t threads,
                            std::uint64_t rounds, double seconds,
                            double speedup, std::uint64_t hash) {
    const double users_per_sec =
        static_cast<double>(rounds) * static_cast<double>(n) / seconds;
    table.cell(mode)
        .cell(static_cast<long long>(threads))
        .cell(static_cast<unsigned long long>(rounds))
        .cell(seconds, 5)
        .cell(users_per_sec)
        .cell(speedup)
        .cell(static_cast<unsigned long long>(hash))
        .end_row();
    json.add_row()
        .field("mode", mode)
        .field("threads", static_cast<long long>(threads))
        .field("hardware_threads", static_cast<long long>(hardware_threads))
        .field("rounds", static_cast<unsigned long long>(rounds))
        .field("seconds", seconds)
        .field("users_per_sec", users_per_sec)
        .field("rounds_per_sec",
               seconds > 0 ? static_cast<double>(rounds) / seconds : 0.0)
        .field("speedup_vs_t1", speedup)
        .field("assignment_hash", static_cast<unsigned long long>(hash));
  };

  // t=1 first, then every other requested count in the given order.
  std::vector<std::size_t> threads_to_run = {1};
  for (const long long threads : thread_counts)
    if (threads != 1) threads_to_run.push_back(static_cast<std::size_t>(threads));

  double t1_seconds = 0.0;
  std::uint64_t reference_hash = 0;
  bool deterministic = true;
  bool scaling_ok = true;
  for (const std::size_t threads : threads_to_run) {
    // One untimed warmup: touches every instance/state page and, for the
    // sharded path, pays the one-off worker spawn outside the timed reps.
    std::uint64_t rounds = 0, hash = 0;
    double seconds;
    run_once(threads, seconds, rounds, hash);
    double best_seconds = 1e100;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      run_once(threads, seconds, rounds, hash);
      best_seconds = std::min(best_seconds, seconds);
    }
    if (threads == 1) {
      t1_seconds = best_seconds;
      reference_hash = hash;
    }
    deterministic = deterministic && hash == reference_hash;
    // Scaling gate: a t>1 run the host can genuinely parallelize must beat
    // the t=1 run. Oversubscribed rows (threads > hardware) are reported
    // but not gated — a 1-core CI box can't demonstrate speedup.
    if (threads > 1 && threads <= hardware_threads &&
        best_seconds >= t1_seconds)
      scaling_ok = false;
    emit_row("sharded", threads, rounds, best_seconds,
             t1_seconds / best_seconds, hash);
  }

  emit(table, common);
  std::cout << (deterministic
                    ? "\ndeterminism: every thread count produced the same "
                      "final assignment\n"
                    : "\ndeterminism: FAILED — assignment hash differs across "
                      "execution policies or thread counts\n");
  if (!scaling_ok)
    std::cout << "scaling: FAILED — a t>1 run within hardware concurrency "
                 "was no faster than t=1\n";
  json.write("BENCH_parallel.json");
  return deterministic && scaling_ok ? 0 : 1;
}
