// Runtime check that engine rounds allocate nothing: this executable
// replaces the global operator new with a counting one, and a trace sink
// reads the counter at every round boundary. For every sharded protocol and
// threads {1, 2}, the rounds after a short warm-up (which sizes every
// reusable buffer) must perform zero heap allocations — decide fan-out,
// commit, satisfied count, trace row and convergence check included. Dense
// mode is checked for every sharded protocol; active mode for every one
// that is active_set_compatible(), which adds the satisfaction index's
// per-migration upkeep and the per-round enumeration of its unsatisfied
// bitmap. The static rule QL015 (qoslb-lint) catches `new`/`malloc`/locks on
// the hot path but cannot see container growth (push_back/resize/assign);
// this test is what catches that.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "core/state.hpp"
#include "net/generators.hpp"
#include "obs/trace_sink.hpp"
#include "rng/xoshiro256.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const auto alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

}  // namespace

// The replacement deallocators free what the replacement allocators
// malloc'ed; GCC's inliner cannot see the pairing and warns spuriously.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace qoslb {
namespace {

constexpr std::uint64_t kRounds = 16;
// Round 1 from the all-on-one start has every user request a move, which
// sizes every per-shard and commit buffer to its maximum at once; the other
// warm-up rounds leave slack for lazily sized per-resource buffers.
constexpr std::uint64_t kWarmup = 3;
constexpr std::uint64_t kMinChecked = 4;

/// Records the allocation counter at every round boundary. Rows arrive
/// after each round's commit and satisfied count, and the convergence check
/// runs between one row and the next, so the difference between consecutive
/// marks is everything one round does.
class AllocationProbe final : public obs::TraceSink {
 public:
  void row(const obs::TraceRow& row) override {
    if (row.round < marks.size())
      marks[row.round] = g_allocations.load(std::memory_order_relaxed);
  }
  std::array<std::uint64_t, kRounds + 1> marks{};
};

struct Case {
  std::string kind;
  std::size_t threads;
};

// Printed by field (the default dumps the bytes of the string's heap
// pointer), so the ctest names CMake derives from it are stable.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.kind << " threads=" << c.threads;
}

/// Runs `c.kind` in `mode` from an all-on-one start and expects every round
/// after the warm-up to allocate nothing.
void expect_steady_rounds_allocation_free(const Case& c, EngineMode mode) {
  // One slot per user (n = m, threshold 1): the last users need many rounds
  // to find the last free resources, so every protocol is still busy after
  // the warm-up. Everyone starts on the hub of a star graph, from which the
  // nbr-* kinds reach every resource too. λ = 1 makes round 1 a
  // full-request round. 20 shards give both pool participants shards to
  // claim.
  Xoshiro256 rng(42);
  const std::size_t n = 40000;
  const std::size_t m = n;
  const Instance instance = make_uniform_feasible(n, m, 0.0, 1.0, rng);
  const Graph star = make_star(static_cast<Vertex>(m));
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = c.kind;
  spec.lambda = 1.0;
  spec.graph = &star;
  const auto protocol = make_protocol(spec);
  ASSERT_TRUE(protocol->supports_step_users());

  AllocationProbe probe;
  EngineConfig config;
  config.mode = mode;
  config.threads = c.threads;
  config.shard_size = 2048;
  config.max_rounds = kRounds;
  config.telemetry.sink = &probe;
  const EngineResult result = Engine(config).run(*protocol, state, rng);

  ASSERT_GE(result.rounds, kWarmup + kMinChecked)
      << c.kind << " converged inside the warm-up; nothing was checked";
  // Only active runs build (and so must maintain) the satisfaction index.
  EXPECT_EQ(state.satisfaction_tracking(), mode == EngineMode::kActive);
  for (std::uint64_t r = kWarmup + 1; r <= result.rounds; ++r)
    EXPECT_EQ(probe.marks[r] - probe.marks[r - 1], 0u)
        << c.kind << " threads=" << c.threads << ": round " << r
        << " allocated";
}

class DenseRoundAllocations : public ::testing::TestWithParam<Case> {};

TEST_P(DenseRoundAllocations, SteadyStateRoundsAllocateNothing) {
  expect_steady_rounds_allocation_free(GetParam(), EngineMode::kDense);
}

class ActiveRoundAllocations : public ::testing::TestWithParam<Case> {};

TEST_P(ActiveRoundAllocations, SteadyStateRoundsAllocateNothing) {
  expect_steady_rounds_allocation_free(GetParam(), EngineMode::kActive);
}

/// Every registered protocol that runs sharded rounds, at 1 and 2 threads;
/// with `active_only`, just those the active mode iterates sparsely
/// (berenbrink's satisfied users act, so it runs densely under kActive).
std::vector<Case> cases(bool active_only) {
  const Graph ring = make_ring(4);
  std::vector<Case> out;
  for (const ProtocolInfo& info : protocol_registry()) {
    ProtocolSpec spec;
    spec.kind = info.name;
    spec.graph = &ring;
    const auto protocol = make_protocol(spec);
    if (!protocol->supports_step_users()) continue;
    if (active_only && !protocol->active_set_compatible()) continue;
    for (const std::size_t threads : {1u, 2u}) out.push_back({info.name, threads});
  }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.kind;
  for (char& ch : name)
    if (ch == '-') ch = '_';
  return name + "_t" + std::to_string(info.param.threads);
}

INSTANTIATE_TEST_SUITE_P(ShardedProtocols, DenseRoundAllocations,
                         ::testing::ValuesIn(cases(false)), case_name);
INSTANTIATE_TEST_SUITE_P(ShardedProtocols, ActiveRoundAllocations,
                         ::testing::ValuesIn(cases(true)), case_name);

}  // namespace
}  // namespace qoslb
