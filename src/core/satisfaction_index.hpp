#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "util/check.hpp"

namespace qoslb {

/// Incrementally-maintained satisfaction index: every user bucketed by its
/// (resource, threshold) pair, the set of currently unsatisfied users as a
/// bit-per-user bitmap, and an O(1) satisfied counter. This is the substrate
/// of the engine's active-set execution mode (docs/performance.md); no other
/// run builds it.
///
/// The structural fact it exploits: user `u` sitting on resource `r` with
/// threshold `t = threshold(u, r)` is satisfied iff `load(r) <= t`, so a
/// committed move only changes loads on its two endpoint resources by one —
/// and of the users there, exactly the ones whose threshold equals the load
/// value the change swept over flip satisfaction. Bucketing residents by
/// (resource, threshold) turns that into one bucket lookup per endpoint, so
/// maintenance is O(1) + #flips per move, and the total flip work over a run
/// is bounded by the run's true satisfaction churn.
///
/// The layout is flat and sized once by rebuild(), so upkeep allocates
/// nothing: each bucket is an intrusive doubly-linked list threaded through
/// the per-user `next_`/`prev_` arrays, and the list heads live in a
/// fixed-capacity open-addressing table keyed by `(r << 32) | uint32(t)`
/// (linear probing, multiplicative hashing, backward-shift deletion). At
/// most n buckets are live and the capacity is at least 2n, so the table
/// never grows and its load factor stays at or below 1/2. The same structure
/// serves every rate model. Order inside a bucket is unobservable (a flip
/// marks every member, and set_status is idempotent), and the table is only
/// ever probed by key, never walked in slot order.
///
/// The bitmap makes the unsatisfied set enumerable in ascending user id with
/// no sort: the order the active round needs so that its applied migration
/// sequence is exactly the dense scan's.
class SatisfactionIndex {
 public:
  /// Builds the index from scratch in O(n) from the host state's
  /// structure-of-arrays views (State's SoA layout, docs/performance.md):
  /// `resource_of[u]`, `threshold_of[u]` (the threshold on u's *current*
  /// resource), and `load_of[r]`.
  void rebuild(std::size_t num_users, std::size_t /*num_resources*/,
               const ResourceId* resource_of, const int* threshold_of,
               const int* load_of) {
    num_users_ = num_users;
    next_.assign(num_users, kNoUser);
    prev_.assign(num_users, kNoUser);
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(2 * num_users, kMinCapacity));
    heads_.assign(capacity, Slot{0, 0, kNoUser});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
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
  /// post-move loads. Cost: two O(1) bucket updates plus one step per user
  /// whose satisfaction actually changed.
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
  /// One head-table entry: the bucket's key (r, t) and its first user;
  /// `head == kNoUser` marks an empty slot (a live bucket is never empty).
  /// Three 32-bit fields keep a slot at 12 bytes.
  struct Slot {
    ResourceId r;
    int t;
    UserId head;
  };

  static constexpr std::size_t kMinCapacity = 16;

  /// Fibonacci hashing of the key (r << 32) | uint32(t): the top bits of
  /// key * 2^64/phi.
  std::size_t home_of(ResourceId r, int t) const {
    const std::uint64_t key =
        (std::uint64_t{r} << 32) | static_cast<std::uint32_t>(t);
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The slot holding bucket (r, t), or the empty slot that ends its probe
  /// run.
  std::size_t probe(ResourceId r, int t) const {
    std::size_t i = home_of(r, t);
    while (heads_[i].head != kNoUser && (heads_[i].r != r || heads_[i].t != t))
      i = (i + 1) & mask_;
    return i;
  }

  void insert_bucket(ResourceId r, int t, UserId u) {
    Slot& slot = heads_[probe(r, t)];
    slot.r = r;
    slot.t = t;
    next_[u] = slot.head;
    prev_[u] = kNoUser;
    if (slot.head != kNoUser) prev_[slot.head] = u;
    slot.head = u;
  }

  void erase_bucket(ResourceId r, int t, UserId u) {
    const UserId next = next_[u];
    const UserId prev = prev_[u];
    if (next != kNoUser) prev_[next] = prev;
    if (prev != kNoUser) {
      next_[prev] = next;
      return;
    }
    // u headed its bucket: its successor becomes the head, or the bucket
    // empties and leaves the table.
    const std::size_t i = probe(r, t);
    QOSLB_CHECK(heads_[i].head == u,
                "satisfaction index: user missing from threshold bucket");
    heads_[i].head = next;
    if (next == kNoUser) erase_slot(i);
  }

  /// Backward-shift deletion: pulls each later member of the probe run
  /// whose home does not lie cyclically in (hole, j] back into the hole, so
  /// every remaining key stays reachable from its home without tombstones.
  void erase_slot(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask_; heads_[j].head != kNoUser;
         j = (j + 1) & mask_) {
      const std::size_t home = home_of(heads_[j].r, heads_[j].t);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        heads_[hole] = heads_[j];
        hole = j;
      }
    }
    heads_[hole].head = kNoUser;
  }

  /// Marks every user of resource `r` with threshold exactly `t`.
  void flip_bucket(ResourceId r, int t, bool satisfied) {
    for (UserId v = heads_[probe(r, t)].head; v != kNoUser; v = next_[v])
      set_status(v, satisfied);
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
  std::vector<UserId> next_;  // u's successor in its bucket, or kNoUser
  std::vector<UserId> prev_;  // u's predecessor in its bucket, or kNoUser
  std::vector<Slot> heads_;   // bucket key -> first user, open addressing
  std::size_t mask_ = 0;      // heads_.size() - 1
  int shift_ = 64;            // 64 - log2(heads_.size())
  std::vector<std::uint64_t> unsat_bits_;  // bit u set iff u is unsatisfied
  std::size_t unsat_count_ = 0;            // popcount of unsat_bits_
};

}  // namespace qoslb
