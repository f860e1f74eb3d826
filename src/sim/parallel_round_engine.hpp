#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

#include "sim/worker_pool.hpp"
#include "util/check.hpp"

namespace qoslb {

/// Sharded fan-out for the decide phase of a synchronous round
/// (docs/engine.md).
///
/// Items (users) are partitioned into fixed-size shards — the partition
/// depends only on `shard_size` and the item count, never on the worker
/// count — and for_each_shard() runs one body per shard, on the pool or
/// inline. The round driver (Engine) snapshots the round boundary before
/// the fan-out and commits after it, on its own thread. Shard bodies write
/// only shard-local buffers and draw from per-(seed, round, user) streams
/// (rng/round_rng.hpp), and the commit consumes the buffers in shard order,
/// so results are bit-identical for every thread count and shard size,
/// including the inline serial path.
///
/// The fan-out runs on a persistent RoundWorkerPool (sim/worker_pool.hpp):
/// workers are spawned once and parked on a condition variable between
/// rounds, so a round's dispatch cost is one mutex-protected publication
/// plus lock-free shard claims — not a per-round thread spawn or a
/// per-shard queue transaction (docs/performance.md).
class ParallelRoundEngine {
 public:
  struct Options {
    /// Worker threads: 0 = hardware concurrency, 1 = inline serial (no pool).
    std::size_t threads = 0;
    /// Items per shard. The default keeps a shard's working set (assignment
    /// + threshold arrays plus its slice of the load snapshot) comfortably
    /// inside a per-core L2 while leaving >= 8 shards of claimable work per
    /// million users; results do not depend on it (per-user substreams), so
    /// it is a pure tuning knob.
    std::size_t shard_size = 8192;
  };

  explicit ParallelRoundEngine(Options options) : options_(options) {
    QOSLB_REQUIRE(options_.shard_size >= 1, "shard_size must be positive");
    if (options_.threads != 1)
      pool_ = std::make_unique<RoundWorkerPool>(options_.threads);
  }

  std::size_t threads() const { return pool_ ? pool_->participants() : 1; }
  std::size_t num_shards(std::size_t num_items) const {
    return std::max<std::size_t>(
        1, (num_items + options_.shard_size - 1) / options_.shard_size);
  }

  /// Runs `body(shard, begin, end)` for every shard of [0, num_items) and
  /// returns once all have finished. Bodies of different shards may run
  /// concurrently; the first exception any of them throws is rethrown here.
  template <typename Body>
  void for_each_shard(std::size_t num_items, const Body& body) {
    const std::size_t shards = num_shards(num_items);
    struct Batch {
      const Body* body;
      std::size_t shard_size;
      std::size_t num_items;
    };
    const Batch batch{&body, options_.shard_size, num_items};
    // One captured pointer keeps the closure inside std::function's
    // small-object buffer, so a pooled round allocates nothing.
    const auto run_shard = [&batch](std::size_t s) {
      const std::size_t begin = s * batch.shard_size;
      (*batch.body)(s, begin,
                    std::min(batch.num_items, begin + batch.shard_size));
    };
    if (pool_) {
      pool_->run(shards, run_shard);
    } else {
      for (std::size_t s = 0; s < shards; ++s) run_shard(s);
    }
  }

 private:
  Options options_;
  std::unique_ptr<RoundWorkerPool> pool_;  // null for the inline serial path
};

}  // namespace qoslb
