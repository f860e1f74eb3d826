// The telemetry determinism contract (docs/observability.md): attaching
// metrics, trace sinks, and a clock must leave every simulation output —
// assignments, round counts, counters, trajectories — bit-identical to the
// telemetry-off run, across thread counts and engine modes, on the sync
// (unit and weighted) and async paths. Plus the accounting itself: trace rows per
// round, metrics mirroring the run counters, trace_every thinning, and
// virtual-time phase attribution for the DES.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/potential.hpp"
#include "net/generators.hpp"
#include "qoslb.hpp"
#include "sharded_cases.hpp"

namespace qoslb {
namespace {

Instance test_instance(std::size_t n, std::size_t m) {
  Xoshiro256 rng(1);
  return make_uniform_feasible(n, m, 0.5, 1.5, rng);
}

std::vector<ResourceId> assignment_of(const State& state) {
  std::vector<ResourceId> assignment(state.num_users());
  for (UserId u = 0; u < state.num_users(); ++u)
    assignment[u] = state.resource_of(u);
  return assignment;
}

EngineConfig base_config(const obs::Telemetry& telemetry) {
  EngineConfig config;
  config.shard_size = 128;
  config.max_rounds = 400;
  config.record_trajectory = true;
  config.telemetry = telemetry;
  return config;
}

class TelemetryInvariance : public ::testing::TestWithParam<ShardedCase> {};

// The acceptance gate: telemetry-off reference vs telemetry-on runs at
// threads {1, 2, 4, 8} in dense and active modes.
TEST_P(TelemetryInvariance, SinksOnAndOffProduceIdenticalRuns) {
  const ShardedCase& param = GetParam();
  const Instance instance = test_instance(2000, 32);
  const Graph ring = make_ring(32);
  const auto make = [&] {
    ProtocolSpec spec;
    spec.kind = param.kind;
    spec.lambda = param.lambda;
    spec.graph = &ring;
    return make_protocol(spec);
  };

  // Reference: telemetry off, dense, one thread.
  std::vector<ResourceId> reference;
  EngineResult reference_result;
  {
    State state = State::all_on(instance, 0);
    const auto protocol = make();
    Xoshiro256 rng(77);
    reference_result =
        Engine(base_config(obs::Telemetry{})).run(*protocol, state, rng);
    reference = assignment_of(state);
    EXPECT_FALSE(reference_result.telemetry.enabled);
  }

  obs::SteadyClock clock;
  for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      obs::MetricsRegistry metrics;
      obs::MemoryTraceSink sink;
      obs::Telemetry telemetry;
      telemetry.metrics = &metrics;
      telemetry.sink = &sink;
      telemetry.clock = &clock;

      State state = State::all_on(instance, 0);
      const auto protocol = make();
      Xoshiro256 rng(77);
      EngineConfig config = base_config(telemetry);
      config.mode = mode;
      config.threads = threads;
      const EngineResult result = Engine(config).run(*protocol, state, rng);

      const std::string label = param.kind +
                                (mode == EngineMode::kActive ? " active"
                                                             : " dense") +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(assignment_of(state), reference) << label;
      EXPECT_EQ(result.rounds, reference_result.rounds) << label;
      EXPECT_EQ(result.converged, reference_result.converged) << label;
      EXPECT_EQ(result.final_satisfied, reference_result.final_satisfied)
          << label;
      EXPECT_EQ(result.unsatisfied_trajectory,
                reference_result.unsatisfied_trajectory)
          << label;
      EXPECT_EQ(result.counters.migrations, reference_result.counters.migrations)
          << label;
      EXPECT_EQ(result.counters.probes, reference_result.counters.probes)
          << label;

      // The accounting contract: one row per executed round plus the
      // round-0 snapshot, identical across every (mode, threads) pair.
      EXPECT_TRUE(result.telemetry.enabled) << label;
      EXPECT_EQ(result.telemetry.trace_rows, result.rounds + 1) << label;
      EXPECT_EQ(sink.rows().size(), result.rounds + 1) << label;
      ASSERT_EQ(sink.runs().size(), 1u) << label;
      EXPECT_EQ(sink.runs()[0].threads, result.threads_used) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllShardedProtocols, TelemetryInvariance,
                         ::testing::ValuesIn(sharded_cases()), case_name);

TEST(Telemetry, MetricsMirrorTheRunCounters) {
  const Instance instance = test_instance(800, 16);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);

  obs::MetricsRegistry metrics;
  obs::SteadyClock clock;
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.clock = &clock;
  EngineConfig config = base_config(telemetry);
  Xoshiro256 rng(5);
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  ASSERT_TRUE(result.converged);

  const auto counter = [&](const char* name) {
    const obs::CounterHandle handle = metrics.find_counter(name);
    EXPECT_TRUE(handle.valid()) << name;
    return handle.valid() ? metrics.counter_value(handle) : 0;
  };
  EXPECT_EQ(counter("engine/rounds"), result.counters.rounds);
  EXPECT_EQ(counter("engine/migrations"), result.counters.migrations);
  EXPECT_EQ(counter("engine/probes"), result.counters.probes);
  EXPECT_EQ(counter("engine/messages"), result.counters.messages());
  EXPECT_EQ(counter("trace/rows"), 0u);  // no sink attached
  EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("engine/threads")),
            static_cast<double>(result.threads_used));
  EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("state/unsatisfied")), 0.0);
  EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("state/potential")),
            rosenthal_potential(state));

  // The active-set histogram saw every executed round.
  const obs::HistogramHandle hist =
      metrics.find_histogram("engine/active_set_size");
  ASSERT_TRUE(hist.valid());
  EXPECT_EQ(metrics.histogram_data(hist).total(), result.rounds);

  // Phase timers ran on the driving thread: one step entry per round.
  EXPECT_EQ(result.telemetry.phases[obs::Phase::kStep].count, result.rounds);
  EXPECT_GE(result.telemetry.phases[obs::Phase::kSatisfactionCheck].count,
            result.rounds);
}

TEST(Telemetry, TraceEveryThinsRowsButKeepsSnapshotAndFinal) {
  const Instance instance = test_instance(800, 16);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.05;  // light damping: enough rounds to exercise thinning

  // Reference run to learn the round count.
  std::uint64_t rounds = 0;
  {
    State state = State::all_on(instance, 0);
    const auto protocol = make_protocol(spec);
    Xoshiro256 rng(5);
    rounds = Engine(base_config(obs::Telemetry{}))
                 .run(*protocol, state, rng)
                 .rounds;
  }
  ASSERT_GT(rounds, 7u);

  obs::MemoryTraceSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  telemetry.trace_every = 7;
  State state = State::all_on(instance, 0);
  const auto protocol = make_protocol(spec);
  Xoshiro256 rng(5);
  const EngineResult result =
      Engine(base_config(telemetry)).run(*protocol, state, rng);
  EXPECT_EQ(result.rounds, rounds);

  // Expected rows: round 0, every 7th round, and the final round always.
  std::vector<std::uint64_t> expected = {0};
  for (std::uint64_t r = 7; r <= rounds; r += 7) expected.push_back(r);
  if (expected.back() != rounds) expected.push_back(rounds);
  std::vector<std::uint64_t> got;
  for (const obs::TraceRow& row : sink.rows()) got.push_back(row.round);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(result.telemetry.trace_rows, expected.size());
}

TEST(Telemetry, AsyncRunsAreUnchangedAndTimeEventDispatchVirtually) {
  Xoshiro256 rng(3);
  const Instance instance = make_uniform_feasible(300, 12, 0.4, 1.5, rng);

  EngineConfig off;
  off.seed = 11;
  off.random_start = false;
  const AsyncRunResult reference = run_async_admission(instance, off);
  EXPECT_FALSE(reference.telemetry.enabled);

  obs::MetricsRegistry metrics;
  EngineConfig on;
  on.seed = 11;
  on.random_start = false;
  on.telemetry.metrics = &metrics;
  // The Engine facade is the metrics-exporting async entry point.
  const EngineResult result = Engine(on).run_async_admission(instance);

  EXPECT_EQ(result.final_satisfied, reference.satisfied);
  EXPECT_EQ(result.events, reference.events);
  EXPECT_EQ(result.virtual_time, reference.virtual_time);
  EXPECT_EQ(result.counters.messages(), reference.counters.messages());

  // kEventDispatch is measured against the DES virtual clock: its seconds
  // are the run's virtual span and its count the delivered events.
  const obs::PhaseStat& dispatch =
      result.telemetry.phases[obs::Phase::kEventDispatch];
  EXPECT_DOUBLE_EQ(dispatch.seconds, result.virtual_time);
  EXPECT_EQ(dispatch.count, result.events);
  EXPECT_EQ(metrics.counter_value(metrics.find_counter("des/events")),
            result.events);
}

TEST(Telemetry, WeightedRunsEmitTraceRows) {
  // Weighted instances run on the one round loop, so they get the same
  // trace rows (loads, max_load and potential in weight units) and metrics
  // as unit runs, and attaching them leaves the realization untouched.
  Xoshiro256 gen(9);
  const Instance instance = make_weighted_feasible(100, 8, 0.3, 4, 1.0, gen);
  ProtocolSpec spec;
  spec.kind = "admission";

  State reference_state = State::all_on(instance, 0);
  Xoshiro256 reference_rng(9);
  const EngineResult reference = Engine(base_config({})).run(
      *make_protocol(spec), reference_state, reference_rng);

  obs::MetricsRegistry metrics;
  obs::SteadyClock clock;
  obs::MemoryTraceSink sink;
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.clock = &clock;
  telemetry.sink = &sink;
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(9);
  const EngineResult result =
      Engine(base_config(telemetry)).run(*make_protocol(spec), state, rng);

  EXPECT_EQ(assignment_of(state), assignment_of(reference_state));
  EXPECT_EQ(result.rounds, reference.rounds);
  EXPECT_TRUE(result.telemetry.enabled);
  EXPECT_EQ(result.telemetry.trace_rows, result.rounds + 1);
  ASSERT_EQ(sink.rows().size(), result.rounds + 1);
  EXPECT_EQ(sink.rows().front().max_load,
            static_cast<std::int64_t>(instance.total_weight()));
  EXPECT_DOUBLE_EQ(sink.rows().back().potential, rosenthal_potential(state));
  EXPECT_EQ(metrics.counter_value(metrics.find_counter("engine/rounds")),
            result.counters.rounds);
  EXPECT_GT(result.telemetry.phases[obs::Phase::kStep].count, 0u);
}

}  // namespace
}  // namespace qoslb
