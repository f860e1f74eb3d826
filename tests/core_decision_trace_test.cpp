// The decision-tracing determinism contract (docs/observability.md):
// attaching a DecisionSink must leave every simulation output bit-identical
// to the tracing-off run — across thread counts {1,2,4,8}, dense/active
// engine modes, and uniform/matrix/bipartite rate models — and the sampled
// decision stream itself must be identical across all of those knobs, since
// it is merged in shard order and sampled by a pure (seed, user) hash.
// Plus the async span contract: span events ride the DES without changing
// it, and group send/retry/timeout/ack chains under stable span ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/snapshot.hpp"
#include "net/generators.hpp"
#include "obs/decision_sink.hpp"
#include "qoslb.hpp"
#include "sharded_cases.hpp"

namespace qoslb {
namespace {

using EventKey =
    std::tuple<std::uint64_t, std::uint64_t, std::int64_t, std::int64_t,
               std::int64_t, std::int64_t, std::int64_t, bool, bool, bool,
               bool>;

EventKey key_of(const obs::DecisionEvent& e) {
  return {e.round,     e.user,    e.from,    e.probe,
          e.target,    e.to,      e.threshold, e.requested,
          e.granted,   e.satisfied_before, e.satisfied_after};
}

std::vector<EventKey> stream_of(const obs::MemoryDecisionSink& sink) {
  std::vector<EventKey> keys;
  keys.reserve(sink.decisions().size());
  for (const obs::DecisionEvent& e : sink.decisions()) keys.push_back(key_of(e));
  return keys;
}

/// Metrics JSONL with the one legitimately layout-dependent line — the
/// engine/threads gauge — dropped, so the rest can be compared bit-exactly.
std::string comparable_metrics(const obs::MetricsRegistry& metrics) {
  std::ostringstream out;
  metrics.write_jsonl(out);
  std::istringstream in(out.str());
  std::string filtered, line;
  while (std::getline(in, line))
    if (line.find("\"engine/threads\"") == std::string::npos)
      filtered += line + '\n';
  return filtered;
}

EngineConfig base_config() {
  EngineConfig config;
  config.shard_size = 128;
  config.max_rounds = 400;
  config.record_trajectory = true;
  return config;
}

/// Herding-prone start that respects restricted assignment: everyone piles
/// onto their first reachable resource.
State adversarial_start(const Instance& instance) {
  std::vector<ResourceId> assignment(instance.num_users(), 0);
  if (instance.restricted())
    for (UserId u = 0; u < assignment.size(); ++u)
      assignment[u] = instance.reachable(u).front();
  return State(instance, std::move(assignment));
}

struct RateCase {
  std::string name;
  Instance instance;
};

std::vector<RateCase> rate_cases() {
  Xoshiro256 rng(21);
  std::vector<RateCase> cases;
  cases.push_back({"uniform", make_uniform_feasible(2000, 32, 0.4, 1.5, rng)});
  cases.push_back({"matrix", make_zipf_rates(2000, 32, 0.1, 1.1, rng)});
  cases.push_back(
      {"bipartite", make_clustered_bipartite(2000, 32, 8, 2, 0.1, rng)});
  return cases;
}

// The acceptance matrix: tracing on/off × threads {1,2,4,8} × dense/active ×
// three rate models, one protocol. The tracing-off dense 1-thread run is the
// reference for the realization; the first traced run is the reference for
// the stream and the per-mode metrics.
TEST(DecisionTraceInvariance, MatrixAcrossThreadsModesAndRateModels) {
  for (const RateCase& rate_case : rate_cases()) {
    const auto make = [] {
      ProtocolSpec spec;
      spec.kind = "admission";
      spec.lambda = 1.0;
      return make_protocol(spec);
    };

    std::uint64_t reference_hash = 0;
    EngineResult reference;
    {
      State state = adversarial_start(rate_case.instance);
      const auto protocol = make();
      Xoshiro256 rng(77);
      reference = Engine(base_config()).run(*protocol, state, rng);
      reference_hash = state_hash(state);
    }

    std::vector<EventKey> reference_stream;
    bool have_stream = false;
    for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive}) {
      // active_size (and with it the active-set histogram) legitimately
      // differs between modes, so metrics bit-identity is a per-mode claim.
      std::string reference_metrics;
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        obs::MetricsRegistry metrics;
        obs::MemoryDecisionSink sink;
        EngineConfig config = base_config();
        config.mode = mode;
        config.threads = threads;
        config.telemetry.metrics = &metrics;
        config.telemetry.decisions = &sink;
        config.telemetry.decision_sample = 2;

        State state = adversarial_start(rate_case.instance);
        const auto protocol = make();
        Xoshiro256 rng(77);
        const EngineResult result =
            Engine(config).run(*protocol, state, rng);

        const std::string label =
            rate_case.name +
            (mode == EngineMode::kActive ? " active" : " dense") +
            " threads=" + std::to_string(threads);
        EXPECT_EQ(state_hash(state), reference_hash) << label;
        EXPECT_EQ(result.rounds, reference.rounds) << label;
        EXPECT_EQ(result.unsatisfied_trajectory,
                  reference.unsatisfied_trajectory)
            << label;
        EXPECT_EQ(result.counters.migrations,
                  reference.counters.migrations)
            << label;

        ASSERT_EQ(sink.runs().size(), 1u) << label;
        // The sample key is the master seed the run derived (and a
        // checkpoint would store) — every traced user passes the hash gate.
        for (const obs::DecisionEvent& event : sink.decisions())
          ASSERT_TRUE(decision_sampled(sink.runs()[0].seed, event.user, 2))
              << label;
        EXPECT_EQ(result.telemetry.decision_events, sink.decisions().size())
            << label;

        if (!have_stream) {
          reference_stream = stream_of(sink);
          have_stream = true;
          ASSERT_FALSE(reference_stream.empty()) << label;
        } else {
          EXPECT_EQ(stream_of(sink), reference_stream) << label;
        }
        if (reference_metrics.empty()) {
          reference_metrics = comparable_metrics(metrics);
        } else {
          EXPECT_EQ(comparable_metrics(metrics), reference_metrics) << label;
        }
      }
    }
  }
}

class DecisionTracePerProtocol : public ::testing::TestWithParam<ShardedCase> {
};

// Every sharded protocol emits the same stream from every (mode, threads)
// pair, without perturbing the run.
TEST_P(DecisionTracePerProtocol, StreamIsLayoutInvariantAndObservational) {
  const ShardedCase& param = GetParam();
  Xoshiro256 gen_rng(1);
  const Instance instance = make_uniform_feasible(2000, 32, 0.5, 1.5, gen_rng);
  const Graph ring = make_ring(32);
  const auto make = [&] {
    ProtocolSpec spec;
    spec.kind = param.kind;
    spec.lambda = param.lambda;
    spec.graph = &ring;
    return make_protocol(spec);
  };

  std::uint64_t reference_hash = 0;
  EngineResult reference;
  {
    State state = State::all_on(instance, 0);
    const auto protocol = make();
    Xoshiro256 rng(77);
    reference = Engine(base_config()).run(*protocol, state, rng);
    reference_hash = state_hash(state);
  }

  std::vector<EventKey> reference_stream;
  bool have_stream = false;
  for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive}) {
    for (const std::size_t threads : {1u, 4u}) {
      obs::MemoryDecisionSink sink;
      EngineConfig config = base_config();
      config.mode = mode;
      config.threads = threads;
      config.telemetry.decisions = &sink;
      config.telemetry.decision_sample = 3;

      State state = State::all_on(instance, 0);
      const auto protocol = make();
      Xoshiro256 rng(77);
      const EngineResult result = Engine(config).run(*protocol, state, rng);

      const std::string label =
          param.kind + (mode == EngineMode::kActive ? " active" : " dense") +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(state_hash(state), reference_hash) << label;
      EXPECT_EQ(result.rounds, reference.rounds) << label;
      EXPECT_EQ(result.unsatisfied_trajectory,
                reference.unsatisfied_trajectory)
          << label;

      // Event-shape contract, protocol-independent: a grant moved the user
      // to its target; an unrequested round left it in place.
      for (const obs::DecisionEvent& event : sink.decisions()) {
        if (event.granted) {
          EXPECT_TRUE(event.requested) << label;
          EXPECT_EQ(event.to, event.target) << label;
        }
        if (!event.requested) {
          EXPECT_EQ(event.target, obs::kNoDecisionTarget) << label;
          EXPECT_FALSE(event.granted) << label;
          EXPECT_EQ(event.to, event.from) << label;
        }
      }

      // Diagnostics accounting: one row per executed round; the per-round
      // granted-move tallies sum to the engine's migration counter.
      ASSERT_EQ(sink.diags().size(), result.rounds) << label;
      std::uint64_t moved = 0;
      for (const obs::DiagRow& row : sink.diags()) moved += row.migrations;
      EXPECT_EQ(moved, result.counters.migrations) << label;

      if (!have_stream) {
        reference_stream = stream_of(sink);
        have_stream = true;
        ASSERT_FALSE(reference_stream.empty()) << label;
      } else {
        EXPECT_EQ(stream_of(sink), reference_stream) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllShardedProtocols, DecisionTracePerProtocol,
                         ::testing::ValuesIn(sharded_cases()), case_name);

// Sampling at 1/k is exactly the full stream filtered by the (seed, user)
// hash gate — no rerandomization, no order change.
TEST(DecisionTrace, SampledStreamIsAFilterOfTheFullStream) {
  Xoshiro256 gen_rng(1);
  const Instance instance = make_uniform_feasible(1500, 24, 0.5, 1.5, gen_rng);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;

  const auto run_with_sample = [&](std::uint64_t every,
                                   obs::MemoryDecisionSink& sink) {
    EngineConfig config = base_config();
    config.telemetry.decisions = &sink;
    config.telemetry.decision_sample = every;
    State state = State::all_on(instance, 0);
    const auto protocol = make_protocol(spec);
    Xoshiro256 rng(5);
    return Engine(config).run(*protocol, state, rng);
  };

  obs::MemoryDecisionSink full;
  obs::MemoryDecisionSink sampled;
  run_with_sample(1, full);
  run_with_sample(4, sampled);
  ASSERT_EQ(full.runs().size(), 1u);
  const std::uint64_t seed = full.runs()[0].seed;
  EXPECT_EQ(sampled.runs()[0].seed, seed);

  std::vector<EventKey> expected;
  for (const obs::DecisionEvent& event : full.decisions())
    if (decision_sampled(seed, event.user, 4)) expected.push_back(key_of(event));
  EXPECT_EQ(stream_of(sampled), expected);
  EXPECT_LT(sampled.decisions().size(), full.decisions().size());
  EXPECT_FALSE(sampled.decisions().empty());
}

// Admission rejections are visible as requested-but-not-granted events, and
// the cold all-at-resource-0 start trips the herding detector, whose hits
// mirror into RunTelemetry.
TEST(DecisionTrace, AdmissionRejectsAndHerdingFindingsAreReported) {
  Xoshiro256 gen_rng(3);
  const Instance instance = make_uniform_feasible(1500, 24, 0.2, 1.5, gen_rng);
  obs::MemoryDecisionSink sink;
  EngineConfig config = base_config();
  config.telemetry.decisions = &sink;
  config.telemetry.herding_factor = 0.5;  // fire on any multi-user inflow

  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "admission";
  spec.lambda = 1.0;
  const auto protocol = make_protocol(spec);
  Xoshiro256 rng(5);
  const EngineResult result = Engine(config).run(*protocol, state, rng);

  bool saw_reject = false;
  for (const obs::DecisionEvent& event : sink.decisions())
    if (event.requested && !event.granted) {
      saw_reject = true;
      EXPECT_EQ(event.to, event.from);
    }
  EXPECT_TRUE(saw_reject);

  ASSERT_FALSE(sink.findings().size() == 0);
  EXPECT_EQ(result.telemetry.herding_findings, sink.findings().size());
  double max_ratio = 0.0;
  for (const obs::DiagRow& row : sink.diags())
    max_ratio = std::max(max_ratio, row.herding_ratio);
  EXPECT_EQ(result.telemetry.max_herding_ratio, max_ratio);
  for (const obs::DecisionFinding& finding : sink.findings()) {
    EXPECT_EQ(finding.detector, "herding");
    EXPECT_GT(finding.inflow, 1u);
    EXPECT_GT(finding.ratio, 0.5);
  }
}

// The DES path: span tracing must not change the realization, and spans
// group one operation attempt chain — every chain starts with a send, and
// every retry/timeout/ack refers back to it.
TEST(DecisionTrace, AsyncSpansRideTheRunWithoutChangingIt) {
  Xoshiro256 gen_rng(3);
  const Instance instance = make_uniform_feasible(300, 12, 0.4, 1.5, gen_rng);

  EngineConfig off;
  off.seed = 11;
  off.random_start = false;
  const AsyncRunResult reference = run_async_admission(instance, off);

  obs::MemoryDecisionSink sink;
  EngineConfig on;
  on.seed = 11;
  on.random_start = false;
  on.telemetry.decisions = &sink;
  on.telemetry.decision_sample = 2;
  const AsyncRunResult traced = run_async_admission(instance, on);

  EXPECT_EQ(traced.satisfied, reference.satisfied);
  EXPECT_EQ(traced.events, reference.events);
  EXPECT_EQ(traced.virtual_time, reference.virtual_time);
  EXPECT_EQ(traced.counters.messages(), reference.counters.messages());
  EXPECT_EQ(traced.telemetry.span_events, sink.spans().size());
  ASSERT_FALSE(sink.spans().empty());

  std::map<std::uint64_t, std::vector<const obs::SpanEvent*>> chains;
  double last_time = 0.0;
  for (const obs::SpanEvent& event : sink.spans()) {
    // The async sample key is config.seed (the DES has no master reseed).
    EXPECT_TRUE(decision_sampled(on.seed, event.user, 2));
    EXPECT_GE(event.time, last_time);  // emitted in virtual-time order
    last_time = event.time;
    chains[event.span].push_back(&event);
  }
  for (const auto& [span, events] : chains) {
    EXPECT_EQ(events.front()->op, "send") << "span " << span;
    const std::uint64_t user = events.front()->user;
    for (const obs::SpanEvent* event : events)
      EXPECT_EQ(event->user, user) << "span " << span;
  }
}

}  // namespace
}  // namespace qoslb
