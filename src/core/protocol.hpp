#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/satisfaction.hpp"
#include "core/state.hpp"
#include "core/types.hpp"
#include "rng/round_rng.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "core/accounting.hpp"

namespace qoslb {

/// A migration wish produced in the decision phase of a synchronous round.
struct MigrationRequest {
  UserId user;
  ResourceId target;
};

/// Decision-trace sampling predicate: a pure hash of (seed, user), never of
/// protocol randomness, so attaching a trace — or changing k — cannot
/// perturb any Philox draw and the sampled set is identical across thread
/// counts, execution modes, and shard layouts (docs/observability.md
/// "Sampling key"). every <= 1 samples every user.
inline bool decision_sampled(std::uint64_t seed, UserId u,
                             std::uint64_t every) {
  if (every <= 1) return true;
  return mix64(seed ^ (0x9E3779B97F4A7C15ULL * (u + 0x5EEDULL))) % every == 0;
}

/// One sampled per-user decision, recorded by step_users() when tracing is
/// attached. The protocol fills the pre-commit half (what it saw and asked
/// for); the engine resolves the post-commit half from the committed state.
struct DecisionRecord {
  UserId user = 0;
  ResourceId from = kNoResource;    // resource at the round boundary
  ResourceId probe = kNoResource;   // best candidate probed, if any
  ResourceId target = kNoResource;  // requested target (kNoResource: stayed)
  int threshold = 0;                // threshold(user, probe) when probed
  bool satisfied_before = false;
};

/// Per-shard decision-trace scratch. The engine attaches one per shard only
/// when a DecisionSink is configured (MigrationBuffer::decisions is null
/// otherwise) and drains them in shard order after commit, so the emitted
/// stream is thread/mode/layout-invariant.
struct DecisionScratch {
  std::uint64_t sample_seed = 0;
  std::uint64_t sample_every = 1;
  std::vector<DecisionRecord> records;

  bool sampled(UserId u) const {
    return decision_sampled(sample_seed, u, sample_every);
  }
};

/// Per-shard output of a sharded decision phase (docs/engine.md). Each shard
/// appends the wishes of its user range here; the commit phase merges the
/// buffers in shard order, so the result is independent of which worker ran
/// which shard.
struct MigrationBuffer {
  std::vector<MigrationRequest> requests;
  /// Optional per-resource aggregates a protocol tallies while deciding
  /// (e.g. AdaptiveSampling's migration-intent counts). Sized lazily by the
  /// protocol; summed across shards in commit_round().
  std::vector<std::uint32_t> resource_tallies;
  /// The shard's prefilter survivors (unsatisfied_prefilter). Per shard,
  /// not per thread, so once a shard has seen its largest user range its
  /// capacity never grows again, whichever worker runs it.
  std::vector<UserId> survivors;
  /// Non-null only while decision tracing is attached (engine-owned, one
  /// per shard). Protocols append a DecisionRecord for every *sampled*
  /// acting user, after all of that user's draws.
  DecisionScratch* decisions = nullptr;
};

/// A distributed (or sequential-baseline) QoS load-balancing dynamic.
///
/// One synchronous round: every decision is taken against the loads observed
/// at the round boundary, and all migrations are applied together — the
/// synchronous model of the paper. The round splits into two hooks:
///
///   * step_users() — decide for an explicit list of users against the
///     immutable round-boundary load snapshot, appending wishes to a
///     MigrationBuffer. Each user draws from its own (seed, round, user)
///     Philox substream (RoundRng), so the outcome for a user is a pure
///     function of that key — independent of the iteration set, shard
///     geometry, and thread count. Pure with respect to the protocol object
///     (it must not touch mutable members), so the engine may fan user
///     lists out across threads.
///   * commit_round() — apply the round's shard buffers (in shard order)
///     and roll any per-round protocol state forward. Always sequential.
///
/// Protocols implementing the pair advertise it via supports_step_users()
/// and inherit a step() that runs decide+commit over the full user range —
/// the classic single-threaded path. Sequential baselines (one move per
/// step) override step() directly and leave the sharded hooks
/// unimplemented. Protocols whose satisfied users neither act nor draw
/// additionally advertise active_set_compatible(): for those the engine may
/// iterate only the unsatisfied set and still reproduce the dense run
/// bit-for-bit (docs/performance.md).
class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string name() const = 0;

  /// Executes one synchronous round (or one sequential-baseline move). The
  /// default implementation routes through step_users()/commit_round() over
  /// the full user range, keying the round's substreams off one draw of
  /// `rng`, and requires supports_step_users().
  virtual void step(State& state, Xoshiro256& rng, Counters& counters);

  /// True when step_users()/commit_round() are implemented and the engine
  /// may shard the decision phase across threads.
  virtual bool supports_step_users() const { return false; }

  /// True when a user that is satisfied in the round-boundary snapshot
  /// neither migrates nor consumes randomness in step_users() — the
  /// precondition for iterating only the unsatisfied set. Berenbrink's
  /// QoS-oblivious dynamic (every user probes every round) is the one
  /// sharded protocol that is *not* compatible; the engine runs it densely
  /// even in active mode.
  virtual bool active_set_compatible() const { return false; }

  /// True when this dynamic respects restricted-assignment instances
  /// (Instance::restricted()): every probe targets the deciding user's
  /// reachable set (sample_reachable() / reachable_target() in
  /// protocols/common.hpp, or a threshold-gated deviation scan), so no
  /// migration ever lands on a rate-0 pair. The engine rejects restricted
  /// instances for protocols that don't opt in; lint rule QL009
  /// cross-checks the registry flag against the class. Unrestricted
  /// instances are unaffected — the helpers reduce to the historical
  /// whole-live-list draw bit-for-bit.
  virtual bool restricted_assignment_compatible() const { return false; }

  /// True when this dynamic respects weighted instances
  /// (Instance::weighted()): every probe, deviation and admission test
  /// counts the mover's weight (`load + weight(u)`, never `load + 1`). The
  /// engine rejects weighted instances for protocols that don't opt in.
  /// Unweighted instances are unaffected — weight(u) is 1 there.
  virtual bool weighted_compatible() const { return false; }

  /// Decides for `users[0..count)` against `load_snapshot` (the loads at
  /// the round boundary), appending wishes to `out`. Draw randomness for
  /// user u exclusively from `rng.user_stream(u)`; tally into `counters`
  /// (the shard's private tally). Must be const with respect to protocol
  /// and state mutations — it runs concurrently with other shards of the
  /// same round.
  virtual void step_users(const State& state,
                          const std::vector<int>& load_snapshot,
                          const UserId* users, std::size_t count,
                          MigrationBuffer& out, const RoundRng& rng,
                          Counters& counters);

  /// Applies one round's shard buffers in shard order and rolls per-round
  /// protocol state forward. The default commit is optimistic: every request
  /// is executed (apply_all).
  virtual void commit_round(State& state, std::vector<MigrationBuffer>& shards,
                            Counters& counters);

  /// The stability notion this dynamic converges to. The default is the
  /// satisfaction equilibrium; the pure load-balancing baseline overrides
  /// with Nash stability of the balancing game.
  virtual bool is_stable(const State& state) const {
    return is_satisfaction_equilibrium(state);
  }

  /// Clears adaptive per-run state (e.g. contention estimates) so a protocol
  /// object can be reused across replications.
  virtual void reset() {}

  /// Serializes cross-round mutable protocol state into a checkpoint
  /// (core/snapshot.hpp) as `field <count>` keyword lines, mirroring the
  /// instance_io text idiom. The default writes nothing — correct for every
  /// protocol whose rounds are memoryless. Overrides must keep write/read
  /// field lists in lockstep; lint rule QL008 cross-checks the pair.
  virtual void snapshot_write(std::ostream& out) const;

  /// Restores what snapshot_write() serialized. Must accept its own output
  /// verbatim and throw std::invalid_argument on malformed input.
  virtual void snapshot_read(std::istream& in);
};

}  // namespace qoslb
