#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/churn_plan.hpp"
#include "core/instance.hpp"
#include "core/state.hpp"
#include "core/types.hpp"
#include "core/accounting.hpp"

namespace qoslb {

class Protocol;

/// Crash-consistent checkpoint of a sharded engine run, taken at a round
/// boundary (docs/faults.md). The writer always emits the newest on-disk
/// version (currently v2, which adds the rate-model block); the reader
/// accepts exactly the versions it knows (v1, which implies a uniform rate
/// model, and v2) and rejects everything else loudly. Adding a field means
/// bumping the magic line again plus keeping the older read paths.
///
/// `next_round` is the first round that has NOT executed: the checkpoint is
/// taken before round `next_round`'s churn events and decisions. Resuming
/// re-derives every later round's Philox substreams from (master_seed,
/// round, user), so the continuation is bit-identical to the uninterrupted
/// run for any thread count and engine mode.
struct SnapshotV1 {
  std::string protocol;       // Protocol::name() of the checkpointed run
  std::uint64_t next_round = 0;
  /// The *effective* master seed after the engine folded its caller-RNG
  /// draw — resume reuses it verbatim and must never re-fold.
  std::uint64_t master_seed = 0;
  // On disk the count lines are named for what they count, not the member.
  std::vector<double> capacities;    // qoslb-snapshot: as(resources)
  std::vector<double> requirements;  // qoslb-snapshot: as(users)
  /// Per-(user, resource) service rates (v2; a v1 checkpoint reads back as
  /// the uniform model).
  RateModel rate_model;
  std::vector<ResourceId> assignment;
  std::vector<std::uint8_t> live;  // per-resource liveness bits
  Counters counters;               // totals up to (excluding) next_round
  ChurnTracker churn;              // mid-dip degradation progress
  /// Verbatim protocol cross-round state (Protocol::snapshot_write output);
  /// empty or newline-terminated.
  std::string protocol_state;

  /// Rebuilds the checkpointed instance.
  Instance make_instance() const;

  /// Rebuilds the checkpointed state against `instance` (which must come
  /// from make_instance() or compare equal), reapplying dead-resource flags.
  State make_state(const Instance& instance) const;
};

/// Serializes `snapshot` as the versioned text format (round-trip exact:
/// doubles at max_digits10).
void write_snapshot(std::ostream& out, const SnapshotV1& snapshot);

/// Parses a checkpoint; throws std::invalid_argument on unknown versions,
/// truncation, or any malformed field.
SnapshotV1 read_snapshot(std::istream& in);

/// Assembles a checkpoint from live run objects (engine internal; exposed
/// for the chaos harness and tests). Throws std::invalid_argument for a
/// state on a weighted instance: SnapshotV1 has no weight field.
SnapshotV1 capture_snapshot(const Protocol& protocol, const State& state,
                            std::uint64_t master_seed,
                            std::uint64_t next_round, const Counters& counters,
                            const ChurnTracker& churn);

/// Order-sensitive fingerprint of an assignment + liveness configuration;
/// two states hash equal iff every user sits on the same resource and the
/// same resources are live. The chaos harness diffs this between a resumed
/// and an uninterrupted run.
std::uint64_t state_hash(const State& state);

}  // namespace qoslb
