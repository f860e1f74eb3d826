#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/satisfaction_index.hpp"
#include "core/satisfaction_scan.hpp"
#include "core/types.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {

/// A complete assignment of users to resources plus the derived load vector.
/// Holds a non-owning reference to its Instance (which must outlive it).
/// move() maintains the loads incrementally in O(1). A load is the total
/// weight of the resource's users (its occupancy when the instance is
/// unweighted), so move() shifts instance().weight(u) between endpoints.
///
/// The storage is structure-of-arrays (docs/performance.md): three parallel
/// contiguous arrays — `assignment_[u]`, `loads_[r]`, and
/// `current_thresholds_[u]` (user u's threshold on its *current* resource,
/// maintained by move()) — so the satisfaction predicate is one branchless
/// comparison over streamed memory,
///
///     satisfied(u)  <=>  loads_[assignment_[u]] <= current_thresholds_[u],
///
/// and whole-population checks vectorize (core/satisfaction_scan.hpp). The
/// raw views below hand these arrays to the round hot path; they are
/// read-only and valid until the next mutating call.
class State {
 public:
  State(const Instance& instance, std::vector<ResourceId> assignment);

  /// Every user on resource `r`.
  static State all_on(const Instance& instance, ResourceId r);

  /// User u on resource u mod m (balanced deterministic start).
  static State round_robin(const Instance& instance);

  /// Independent uniform placement.
  static State random(const Instance& instance, Xoshiro256& rng);

  /// Sequential power-of-two-choices placement: each user samples two
  /// resources and joins the one with the smaller current load (ties toward
  /// the first sample). Classic O(log log n) max-load start.
  static State two_choices(const Instance& instance, Xoshiro256& rng);

  const Instance& instance() const { return *instance_; }
  std::size_t num_users() const { return assignment_.size(); }
  std::size_t num_resources() const { return loads_.size(); }

  ResourceId resource_of(UserId u) const;
  int load(ResourceId r) const;
  const std::vector<int>& loads() const { return loads_; }

  /// SoA views for the round hot path: the full assignment array and the
  /// per-user cached threshold-on-current-resource array (always equal to
  /// instance().threshold(u, resource_of(u)); check_invariants() audits the
  /// cache). Unlike resource_of(), reads through these views skip the
  /// per-call range check — callers iterate [0, num_users()).
  const std::vector<ResourceId>& assignment() const { return assignment_; }
  const std::vector<int>& current_thresholds() const {
    return current_thresholds_;
  }

  /// Resource liveness (mid-run churn, docs/faults.md). Every resource
  /// starts live; a dead resource stays in the load vector (id-stable) but
  /// is excluded from protocol sampling and deviation checks. Flipping
  /// liveness never touches loads — the engine evicts residents explicitly.
  bool resource_live(ResourceId r) const;
  std::size_t num_live_resources() const { return live_list_.size(); }

  /// The live resource ids, ascending. With every resource live this is the
  /// identity list [0, m), so sampling `live[uniform(live.size())]` draws
  /// bit-identically to the historical `uniform(num_resources())`.
  const std::vector<ResourceId>& live_resources() const { return live_list_; }

  /// Flips resource `r`'s liveness. Rejects no-op flips (they indicate a
  /// schedule bug) and killing the last live resource.
  void set_resource_live(ResourceId r, bool live);

  /// Moves user u to resource r (no-op allowed when r == current).
  void move(UserId u, ResourceId r);

  /// Quality currently experienced by user u.
  double quality_of(UserId u) const;

  /// True iff user u's requirement is met in the current state.
  bool satisfied(UserId u) const;

  /// Turns on the incremental satisfaction index (idempotent; O(n) build,
  /// the only allocation it makes). Afterwards count_satisfied() is O(1),
  /// for_each_unsatisfied() costs O(n / 64 + |unsatisfied|), and every
  /// move() additionally maintains the index in O(weight) + #satisfaction
  /// flips without allocating. The engine enables it for active-mode runs only;
  /// every other path reads satisfaction through the SoA scans
  /// (core/satisfaction_scan.hpp).
  void enable_satisfaction_tracking();
  bool satisfaction_tracking() const { return index_.has_value(); }

  /// The one enumeration of the currently unsatisfied users: calls
  /// `visit(u)` for each in ascending id order and stops as soon as a call
  /// returns false; returns whether it visited all. Reads the index bitmap
  /// when tracked and runs the branchless collect_unsatisfied scan over all
  /// users otherwise — same users, same order.
  template <typename Visit>
  bool for_each_unsatisfied(const Visit& visit) const;

  std::size_t count_satisfied() const;
  std::size_t count_unsatisfied() const { return num_users() - count_satisfied(); }

  /// Total weight of the satisfied users (count_satisfied() when
  /// unweighted): the weighted model's welfare measure. One O(n) scan.
  std::uint64_t satisfied_weight() const;

  int max_load() const;
  int min_load() const;

  /// Recomputes loads from the assignment and compares; additionally
  /// cross-checks the satisfaction index against a recompute and verifies
  /// no user resides on a dead resource. Throws on any mismatch.
  void check_invariants() const;

 private:
  // Only assignment_ and live_ reach the checkpoint; everything else is
  // derived from them (SnapshotV1::make_state reconstructs via rebind +
  // set_resource_live), which QL014 requires us to say explicitly.
  const Instance* instance_;  // qoslb-snapshot: transient
  std::vector<ResourceId> assignment_;
  std::vector<int> loads_;  // qoslb-snapshot: transient
  // threshold(u, assignment_[u])
  std::vector<int> current_thresholds_;  // qoslb-snapshot: transient
  std::vector<std::uint8_t> live_;
  // live ids, ascending
  std::vector<ResourceId> live_list_;  // qoslb-snapshot: transient
  std::optional<SatisfactionIndex> index_;  // qoslb-snapshot: transient
};

template <typename Visit>
bool State::for_each_unsatisfied(const Visit& visit) const {
  if (index_) return index_->for_each_unsatisfied(visit);
  // Fixed-size stack chunks keep the untracked enumeration allocation-free.
  constexpr std::size_t kChunk = 256;
  UserId ids[kChunk] = {};
  UserId unsatisfied[kChunk] = {};
  for (std::size_t base = 0; base < num_users(); base += kChunk) {
    const std::size_t count = std::min(kChunk, num_users() - base);
    for (std::size_t i = 0; i < count; ++i)
      ids[i] = static_cast<UserId>(base + i);
    const std::size_t written = collect_unsatisfied(
        assignment_.data(), current_thresholds_.data(), loads_.data(), ids,
        count, unsatisfied);
    for (std::size_t i = 0; i < written; ++i)
      if (!visit(unsatisfied[i])) return false;
  }
  return true;
}

}  // namespace qoslb
