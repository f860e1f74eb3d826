#pragma once

/// Umbrella header for the stable qoslb API.
///
/// Downstream code (examples, benches, external users) should include only
/// this header; the individual headers below remain available but their
/// layout is an implementation detail and may shift between releases. The
/// curated surface:
///
///   - Engine / EngineConfig / EngineResult  — the one way to run a protocol
///     (synchronous rounds, sequential or sharded-parallel, async)
///   - Protocol + the registry (make_protocol / protocol_registry)
///   - Instance / State and the generator families; weighted users are an
///     optional Instance field (make_weighted_feasible), run by the same
///     round loop
///   - the async (DES) fault model
///   - the observability layer (MetricsRegistry, TraceSink, Clock/Stopwatch)
///   - RNG (Xoshiro256, Philox substreams) and small table/CSV helpers

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/protocol.hpp"
#include "core/protocols/registry.hpp"
#include "core/rate_model.hpp"
#include "core/satisfaction.hpp"
#include "core/state.hpp"
#include "core/async/async_protocols.hpp"
#include "net/generators.hpp"
#include "net/graph.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_sink.hpp"
#include "rng/distributions.hpp"
#include "rng/philox.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/faults.hpp"
#include "util/table.hpp"
