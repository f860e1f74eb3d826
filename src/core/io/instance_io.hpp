#pragma once

#include <iosfwd>

#include "core/instance.hpp"
#include "core/state.hpp"

namespace qoslb {

/// Plain-text serialization for instances and states, so the CLI can save a
/// generated workload and replay it later (or exchange it with other tools).
///
/// Format (line-oriented, '#' comments allowed between sections):
///
///   qoslb-instance v2
///   resources <m>
///   <m capacity lines>
///   users <n>
///   <n requirement lines>
///   rate_model uniform | matrix | bipartite
///   [rates <n·m> + value lines]            (matrix)
///   [edges <E> + "<u> <r> <rate>" lines]   (bipartite)
///
///   qoslb-state v1
///   users <n>
///   <n resource-id lines>
///
/// The writer always emits the newest version; the reader also accepts the
/// pre-rate-model `qoslb-instance v1` (read back as the uniform model).
/// Numbers are written with 17 significant digits so the round trip is
/// value-exact for doubles.

/// Throws std::invalid_argument for a weighted instance: the format has no
/// weight section.
void write_instance(std::ostream& out, const Instance& instance);

/// Throws std::invalid_argument on malformed input.
Instance read_instance(std::istream& in);

void write_state(std::ostream& out, const State& state);

/// The instance must match the state being read (user count, resource
/// range); throws std::invalid_argument otherwise.
State read_state(std::istream& in, const Instance& instance);

}  // namespace qoslb
