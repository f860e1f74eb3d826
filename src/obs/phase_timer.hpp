#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/clock.hpp"

namespace qoslb::obs {

/// The engine's timed phase buckets. Sync rounds fill kStep/kCommit/
/// kSatisfactionCheck; async runs fill kEventDispatch; sink writes (trace
/// rows, progress lines) are accounted to kTrace so "sim seconds" can be
/// reported net of telemetry I/O (bench/bench_json.hpp timing_fields).
enum class Phase : std::uint8_t {
  kStep = 0,           // decide fan-out (sharded) or protocol step()
  kCommit,             // shard-ordered merge + commit_round
  kSatisfactionCheck,  // convergence / stability checks
  kTrace,              // trace-sink row emission (telemetry overhead)
  kEventDispatch,      // DES event loop (virtual seconds)
};

inline constexpr std::size_t kNumPhases = 5;

inline const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kStep: return "step";
    case Phase::kCommit: return "commit";
    case Phase::kSatisfactionCheck: return "satisfaction_check";
    case Phase::kTrace: return "trace";
    case Phase::kEventDispatch: return "event_dispatch";
  }
  return "?";
}

struct PhaseStat {
  double seconds = 0.0;
  std::uint64_t count = 0;
};

/// Per-run phase accumulator. Written only from the driving thread (the
/// sharded decide fan-out is timed as a whole, not per worker), so there is
/// nothing atomic here and nothing on the simulation path.
struct PhaseTimers {
  std::array<PhaseStat, kNumPhases> stats{};

  PhaseStat& operator[](Phase phase) {
    return stats[static_cast<std::size_t>(phase)];
  }
  const PhaseStat& operator[](Phase phase) const {
    return stats[static_cast<std::size_t>(phase)];
  }

  void add(Phase phase, double seconds) {
    PhaseStat& stat = (*this)[phase];
    stat.seconds += seconds;
    ++stat.count;
  }

  void merge(const PhaseTimers& other) {
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      stats[i].seconds += other.stats[i].seconds;
      stats[i].count += other.stats[i].count;
    }
  }
};

/// One reading of the four tracked hardware counters. All zero when the
/// counters are unavailable.
struct PerfSample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
};

/// Per-phase hardware-counter totals, attributed on the driving thread with
/// the same before/after subtraction the phase clock uses. Mirrors
/// PhaseTimers; lives on RunTelemetry.
struct PhasePerf {
  std::array<PerfSample, kNumPhases> totals{};

  PerfSample& operator[](Phase phase) {
    return totals[static_cast<std::size_t>(phase)];
  }
  const PerfSample& operator[](Phase phase) const {
    return totals[static_cast<std::size_t>(phase)];
  }

  /// Adds the (after - before) delta into `phase`, saturating at zero per
  /// counter (counter multiplexing can make raw reads non-monotonic).
  void add(Phase phase, const PerfSample& before, const PerfSample& after);
};

class PerfCounters;  // obs/perf_counters.hpp

/// RAII phase span: wall time into `timers` and, when a PerfCounters is
/// attached, hardware counters into `perf_totals`. A null clock and a null
/// perf (telemetry off) make construction and destruction free of reads —
/// the call site needs no branch. Reads happen on the constructing thread
/// only (perf fds are per-thread; see obs/perf_counters.hpp on what that
/// misses at threads > 1).
class ScopedPhase {
 public:
  ScopedPhase(const Clock* clock, PhaseTimers* timers, Phase phase,
              const PerfCounters* perf = nullptr,
              PhasePerf* perf_totals = nullptr)
      : clock_(timers != nullptr ? clock : nullptr), timers_(timers),
        perf_(perf_totals != nullptr ? perf : nullptr),
        perf_totals_(perf_totals), phase_(phase),
        start_(clock_ != nullptr ? clock_->now() : 0.0) {
    if (perf_ != nullptr) perf_start_ = read(perf_);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (perf_ != nullptr) perf_totals_->add(phase_, perf_start_, read(perf_));
    if (clock_ != nullptr) timers_->add(phase_, clock_->now() - start_);
  }

 private:
  /// perf->read(), defined next to PerfCounters (obs/perf_counters.cpp).
  static PerfSample read(const PerfCounters* perf);

  const Clock* clock_;
  PhaseTimers* timers_;
  const PerfCounters* perf_;
  PhasePerf* perf_totals_;
  Phase phase_;
  double start_;
  PerfSample perf_start_;
};

}  // namespace qoslb::obs
