#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/protocol.hpp"  // MigrationRequest / MigrationBuffer
#include "core/state.hpp"
#include "core/types.hpp"
#include "rng/distributions.hpp"
#include "core/accounting.hpp"

namespace qoslb {

/// Draws one probe target for user `u`. Unrestricted instances keep the
/// historical whole-live-list draw bit-for-bit; restricted ones draw from
/// u's reachable set instead. A restricted draw that lands on a dead
/// resource returns kNoResource — a failed probe, mirroring the nbr-*
/// dead-neighbor idiom — so u's stream position advances identically
/// whether or not churn killed anything. Every restricted-assignment-
/// compatible sampling protocol must draw through this helper (lint rule
/// QL009).
template <typename Rng>
ResourceId sample_reachable(const State& state, UserId u, Rng& rng) {
  const Instance& instance = state.instance();
  if (!instance.restricted()) {
    const auto& live = state.live_resources();
    return live[uniform_u64_below(rng, live.size())];
  }
  const auto reach = instance.reachable(u);
  const auto r = static_cast<ResourceId>(
      reach[uniform_u64_below(rng, reach.size())]);
  return state.resource_live(r) ? r : kNoResource;
}

/// True iff `r` is a valid migration target for `u`: live, and reachable
/// when the instance is restricted. Fixed-candidate protocols (nbr-*) gate
/// each probe through this instead of bare resource_live().
inline bool reachable_target(const State& state, UserId u, ResourceId r) {
  if (!state.resource_live(r)) return false;
  return !state.instance().restricted() || state.instance().rate(u, r) > 0.0;
}

/// Filters `users[0..count)` down to the users unsatisfied against the
/// round-boundary `load_snapshot`, preserving ascending input order, via the
/// branchless SoA scan (core/satisfaction_scan.hpp). This hoists the
/// per-user "satisfied -> neither act nor draw" branch out of the decision
/// loop: the survivors are exactly the users the historical
///     if (snapshot[current] <= threshold(u, current)) continue;
/// prefilter would have reached, so draws and request-append order are
/// bit-identical. Returns a view into `scratch` (the shard's
/// MigrationBuffer::survivors), valid until its next prefilter.
std::span<const UserId> unsatisfied_prefilter(
    const State& state, const std::vector<int>& load_snapshot,
    const UserId* users, std::size_t count, std::vector<UserId>& scratch);

/// Merges one round's shard buffers into `out` in shard order — bit-identical
/// to sequential concatenation, hence independent of which worker ran which
/// shard. Two passes: size the destination by an exclusive prefix sum of the
/// shard sizes, then copy each shard into its slot. `out` is caller-owned
/// scratch (cleared here, capacity reused across rounds).
void merge_shard_requests(const std::vector<MigrationBuffer>& shards,
                          std::vector<MigrationRequest>& out);

/// Applies optimistic (ungated) migrations; every request is executed.
void apply_all(State& state, const std::vector<MigrationRequest>& requests,
               Counters& counters);

/// Buffers of apply_with_admission, owned by the calling protocol so their
/// capacity is reused across rounds (commit is always sequential, so a
/// member is race-free) and steady-state commits allocate nothing.
struct AdmissionScratch {
  std::vector<int> resident_min;         // per resource
  std::vector<MigrationRequest> sorted;  // requests in grant-scan order
};

/// Resource-gated admission (protocol P4/P5-admission of DESIGN.md): each
/// resource sorts its requesters by descending threshold and admits the
/// longest prefix k such that the post-admission load keeps both the
/// admitted requesters and the current residents satisfied:
///     load + W_k ≤ min(resident_min_threshold, k-th admitted threshold),
/// where W_k is the prefix's weight sum (k for unit weights). Rejected
/// requesters stay where they are.
void apply_with_admission(State& state,
                          const std::vector<MigrationRequest>& requests,
                          Counters& counters, AdmissionScratch& scratch);

/// Fills `out` with the minimum threshold among the *currently satisfied*
/// residents of each resource (total weight + 1 when there is none, i.e.
/// no resident constraint). Unsatisfied residents do not gate admission — they
/// cannot be hurt further.
void resident_min_thresholds(const State& state, std::vector<int>& out);

}  // namespace qoslb
