#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "core/types.hpp"
#include "util/check.hpp"

namespace qoslb {

/// Incrementally-maintained satisfaction index: a per-resource user index
/// bucketed by threshold, the set of currently unsatisfied users as a
/// bit-per-user bitmap, and an O(1) satisfied counter. This is the substrate
/// of the engine's active-set execution mode (docs/performance.md); no other
/// run builds it.
///
/// The structural fact it exploits: user `u` sitting on resource `r` with
/// threshold `t = threshold(u, r)` is satisfied iff `load(r) <= t`, so a
/// committed move only changes loads on its two endpoint resources by one —
/// and of the users indexed there, exactly the ones whose threshold equals
/// the load value the change swept over flip satisfaction. Keeping each
/// resource's residents bucketed by threshold (an ordered map of
/// threshold -> users) turns that into one bucket lookup, so maintenance is
/// O(log m_r + #flips) per move, and the total flip work over a run is
/// bounded by the run's true satisfaction churn.
///
/// The bitmap makes the unsatisfied set enumerable in ascending user id with
/// no sort: the order the active round needs so that its applied migration
/// sequence is exactly the dense scan's.
class SatisfactionIndex {
 public:
  /// Builds the index from scratch in O(n log n) from the host state's
  /// structure-of-arrays views (State's SoA layout, docs/performance.md):
  /// `resource_of[u]`, `threshold_of[u]` (the threshold on u's *current*
  /// resource), and `load_of[r]`.
  void rebuild(std::size_t num_users, std::size_t num_resources,
               const ResourceId* resource_of, const int* threshold_of,
               const int* load_of) {
    num_users_ = num_users;
    buckets_.assign(num_resources, {});
    bucket_pos_.assign(num_users, 0);
    unsat_bits_.assign((num_users + 63) / 64, 0);
    unsat_count_ = 0;
    for (UserId u = 0; u < num_users; ++u) {
      const ResourceId r = resource_of[u];
      const int t = threshold_of[u];
      insert_bucket(r, t, u);
      if (load_of[r] > t) set_status(u, /*satisfied=*/false);
    }
  }

  /// Reflects a committed move of `u` from `src` to `dst` (src != dst) —
  /// call *after* the host state updated its loads. `*_load_after` are the
  /// post-move loads. Cost: two bucket updates plus one step per user whose
  /// satisfaction actually changed.
  void on_move(UserId u, ResourceId src, int threshold_on_src, ResourceId dst,
               int threshold_on_dst, int src_load_after, int dst_load_after) {
    erase_bucket(src, threshold_on_src, u);
    // src's load fell from src_load_after + 1 to src_load_after: the users
    // with threshold exactly src_load_after were unsatisfied before and are
    // satisfied now.
    flip_bucket(src, src_load_after, /*satisfied=*/true);
    // dst's load rose from dst_load_after - 1 to dst_load_after: the users
    // with threshold exactly dst_load_after - 1 were satisfied before and
    // are unsatisfied now.
    flip_bucket(dst, dst_load_after - 1, /*satisfied=*/false);
    insert_bucket(dst, threshold_on_dst, u);
    // The mover itself is re-evaluated on its new resource (set_status is
    // idempotent, so it does not matter what the flips above did to u).
    set_status(u, dst_load_after <= threshold_on_dst);
  }

  std::size_t satisfied_count() const { return num_users_ - unsat_count_; }

  /// Calls `visit(u)` for every unsatisfied user in ascending id order and
  /// stops as soon as a call returns false. Returns whether it visited all.
  /// Cost O(n / 64 + |unsatisfied|).
  template <typename Visit>
  bool for_each_unsatisfied(const Visit& visit) const {
    for (std::size_t w = 0; w < unsat_bits_.size(); ++w) {
      for (std::uint64_t word = unsat_bits_[w]; word != 0; word &= word - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        if (!visit(static_cast<UserId>(w * 64 + bit))) return false;
      }
    }
    return true;
  }

 private:
  using Bucket = std::vector<UserId>;

  void insert_bucket(ResourceId r, int t, UserId u) {
    Bucket& bucket = buckets_[r][t];
    bucket_pos_[u] = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(u);
  }

  void erase_bucket(ResourceId r, int t, UserId u) {
    const auto it = buckets_[r].find(t);
    QOSLB_CHECK(it != buckets_[r].end(),
                "satisfaction index: user missing from threshold bucket");
    Bucket& bucket = it->second;
    const std::uint32_t pos = bucket_pos_[u];
    const UserId moved = bucket.back();
    bucket[pos] = moved;
    bucket_pos_[moved] = pos;
    bucket.pop_back();
    if (bucket.empty()) buckets_[r].erase(it);
  }

  /// Marks every user of resource `r` with threshold exactly `t`.
  void flip_bucket(ResourceId r, int t, bool satisfied) {
    const auto it = buckets_[r].find(t);
    if (it == buckets_[r].end()) return;
    for (const UserId v : it->second) set_status(v, satisfied);
  }

  /// Idempotent membership update of the unsatisfied bitmap.
  void set_status(UserId u, bool satisfied) {
    std::uint64_t& word = unsat_bits_[u / 64];
    const std::uint64_t bit = std::uint64_t{1} << (u % 64);
    if (((word & bit) == 0) != satisfied) {
      word ^= bit;
      if (satisfied)
        --unsat_count_;
      else
        ++unsat_count_;
    }
  }

  std::size_t num_users_ = 0;
  /// buckets_[r]: threshold -> users currently resident on r with exactly
  /// that threshold there.
  std::vector<std::map<int, Bucket>> buckets_;
  std::vector<std::uint32_t> bucket_pos_;  // u's slot in its bucket
  std::vector<std::uint64_t> unsat_bits_;  // bit u set iff u is unsatisfied
  std::size_t unsat_count_ = 0;            // popcount of unsat_bits_
};

}  // namespace qoslb
