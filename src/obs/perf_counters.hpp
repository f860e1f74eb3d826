#pragma once

#include <array>
#include <cstdint>

#include "obs/phase_timer.hpp"

namespace qoslb::obs {

/// Thin `perf_event_open` wrapper: opens cycles / instructions /
/// cache-misses / branch-misses counters for the *calling thread* and reads
/// them on demand. Where the syscall is unavailable or forbidden (non-Linux,
/// containers and CI runners with perf_event_paranoid locked down, seccomp),
/// construction logs ONE warning naming the reason and every read() returns
/// zeros — runs degrade loudly but never fail (docs/observability.md
/// "Perf-counter availability").
///
/// The counters are per-thread (no inherit): attributions taken on the
/// engine's driving thread do not include the sharded decide fan-out that
/// runs on pool workers. The phase that measures end-to-end work on the
/// driving thread is still meaningful at any thread count; the availability
/// matrix in the docs spells out the caveat.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  bool available() const { return available_; }

  /// Current counter values (monotonic totals since construction). Zeros
  /// when unavailable.
  PerfSample read() const;

 private:
  std::array<int, 4> fds_{{-1, -1, -1, -1}};
  bool available_ = false;
};

}  // namespace qoslb::obs
