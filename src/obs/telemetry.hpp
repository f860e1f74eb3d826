#pragma once

#include <cstdint>

#include "obs/perf_counters.hpp"
#include "obs/phase_timer.hpp"

namespace qoslb::obs {

class Clock;
class DecisionSink;
class MetricsRegistry;
class TraceSink;

/// Telemetry options on EngineConfig. Everything is borrowed and optional;
/// all-null (the default) is the guaranteed-zero-overhead configuration.
/// Whatever is attached, the realization is unchanged: telemetry reads the
/// simulation, never feeds it (tests/core_telemetry_test.cpp and
/// tests/core_decision_trace_test.cpp pin the assignment hashes on vs. off
/// across threads and modes).
struct Telemetry {
  /// Counters/gauges/histograms filled over the run and finalized with the
  /// result (metrics catalog: docs/observability.md).
  MetricsRegistry* metrics = nullptr;
  /// Per-round trace rows (round-0 snapshot included). Only the synchronous
  /// round loop (weighted instances included) produces rows; async runs
  /// fill metrics and phase timers only.
  TraceSink* sink = nullptr;
  /// Phase-timer time source. Null disables timing; tools inject a
  /// SteadyClock, async runs override with the DES virtual clock.
  const Clock* clock = nullptr;
  /// Emit every k-th round's row (the round-0 snapshot and the final round
  /// are always emitted). 1 = every round.
  std::uint64_t trace_every = 1;

  /// Per-decision / span / diagnostics stream (docs/observability.md v2).
  /// Sharded sync rounds emit sampled decision events and per-round
  /// diagnostics; async runs emit message spans. Null disables all three.
  DecisionSink* decisions = nullptr;
  /// Sample 1-in-k users for decision/span events, keyed on a pure hash of
  /// (seed, user) — decision_sampled() in core/protocol.hpp — so the
  /// sampled set is thread/mode/layout-invariant and tracing never touches
  /// a protocol RNG stream. 1 = every user.
  std::uint64_t decision_sample = 1;
  /// Herding detector threshold: flag a round when the in-migrations into
  /// one resource exceed `herding_factor` times that resource's same-round
  /// drain (and there is more than one in-migration).
  double herding_factor = 4.0;
  /// Hardware counters (obs/perf_counters.hpp), attributed per phase on the
  /// driving thread. Null disables; an unavailable wrapper reads zeros.
  PerfCounters* perf = nullptr;

  bool any() const {
    return metrics != nullptr || sink != nullptr || clock != nullptr ||
           decisions != nullptr || perf != nullptr;
  }
};

/// Per-run telemetry snapshot on EngineResult.
struct RunTelemetry {
  bool enabled = false;  // any telemetry option was attached
  PhaseTimers phases;
  std::uint64_t trace_rows = 0;  // rows emitted to the sink

  // Decision-stream accounting (zero when no DecisionSink was attached).
  std::uint64_t decision_events = 0;
  std::uint64_t span_events = 0;
  std::uint64_t herding_findings = 0;
  double max_herding_ratio = 0.0;

  // Per-phase hardware-counter totals (zero when no PerfCounters attached
  // or the counters could not be opened).
  bool perf_available = false;
  PhasePerf perf;

  /// Wall time spent emitting trace rows — subtract from a measured wall
  /// time to get sink-free "sim seconds" (bench_json timing_fields).
  double sink_seconds() const { return phases[Phase::kTrace].seconds; }
};

}  // namespace qoslb::obs
