#include "obs/perf_counters.hpp"

#include <cerrno>
#include <cstring>

#include "util/log.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace qoslb::obs {

#if defined(__linux__)
namespace {

constexpr std::array<std::uint64_t, 4> kEventConfigs = {
    PERF_COUNT_HW_CPU_CYCLES,
    PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES,
};

constexpr std::array<const char*, 4> kEventNames = {
    "cycles", "instructions", "cache-misses", "branch-misses"};

int open_counter(std::uint64_t config) {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // pid=0, cpu=-1, no inherit: count this thread only, on any CPU.
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0UL));
}

std::uint64_t read_counter(int fd) {
  std::uint64_t value = 0;
  if (fd < 0) return 0;
  if (::read(fd, &value, sizeof(value)) != sizeof(value)) return 0;
  return value;
}

}  // namespace

PerfCounters::PerfCounters() {
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    fds_[i] = open_counter(kEventConfigs[i]);
    if (fds_[i] < 0) {
      QOSLB_WARN << "perf counters unavailable (" << kEventNames[i] << ": "
                 << std::strerror(errno)
                 << "); perf/* metrics will read zero";
      for (std::size_t j = 0; j < i; ++j) {
        ::close(fds_[j]);
        fds_[j] = -1;
      }
      fds_[i] = -1;
      return;
    }
  }
  available_ = true;
}

PerfCounters::~PerfCounters() {
  for (const int fd : fds_)
    if (fd >= 0) ::close(fd);
}

PerfSample PerfCounters::read() const {
  PerfSample sample;
  if (!available_) return sample;
  sample.cycles = read_counter(fds_[0]);
  sample.instructions = read_counter(fds_[1]);
  sample.cache_misses = read_counter(fds_[2]);
  sample.branch_misses = read_counter(fds_[3]);
  return sample;
}

#else  // !__linux__

PerfCounters::PerfCounters() {
  QOSLB_WARN << "perf counters unavailable (perf_event_open is "
                "Linux-only); perf/* metrics will read zero";
}

PerfCounters::~PerfCounters() = default;

PerfSample PerfCounters::read() const { return PerfSample{}; }

#endif

PerfSample ScopedPhase::read(const PerfCounters* perf) { return perf->read(); }

void PhasePerf::add(Phase phase, const PerfSample& before,
                    const PerfSample& after) {
  const auto delta = [](std::uint64_t lo, std::uint64_t hi) {
    return hi > lo ? hi - lo : 0;
  };
  PerfSample& total = (*this)[phase];
  total.cycles += delta(before.cycles, after.cycles);
  total.instructions += delta(before.instructions, after.instructions);
  total.cache_misses += delta(before.cache_misses, after.cache_misses);
  total.branch_misses += delta(before.branch_misses, after.branch_misses);
}

}  // namespace qoslb::obs
