#include "core/protocols/common.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/satisfaction_scan.hpp"

namespace qoslb {

std::span<const UserId> unsatisfied_prefilter(
    const State& state, const std::vector<int>& load_snapshot,
    const UserId* users, std::size_t count, std::vector<UserId>& scratch) {
  if (scratch.size() < count) scratch.resize(count);
  const std::size_t written = collect_unsatisfied(
      state.assignment().data(), state.current_thresholds().data(),
      load_snapshot.data(), users, count, scratch.data());
  return {scratch.data(), written};
}

void merge_shard_requests(const std::vector<MigrationBuffer>& shards,
                          std::vector<MigrationRequest>& out) {
  std::size_t total = 0;
  for (const MigrationBuffer& shard : shards) total += shard.requests.size();
  out.clear();
  out.resize(total);
  std::size_t offset = 0;  // exclusive prefix sum of shard sizes
  for (const MigrationBuffer& shard : shards) {
    std::copy(shard.requests.begin(), shard.requests.end(),
              out.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += shard.requests.size();
  }
}

void apply_all(State& state, const std::vector<MigrationRequest>& requests,
               Counters& counters) {
  for (const MigrationRequest& req : requests) {
    state.move(req.user, req.target);
    ++counters.migrations;
  }
}

void resident_min_thresholds(const State& state, std::vector<int>& out) {
  const auto& assignment = state.assignment();
  const auto& thresholds = state.current_thresholds();
  const auto& loads = state.loads();
  // No load exceeds the total weight, so total + 1 gates nothing; at a
  // total of exactly INT_MAX, INT_MAX itself is that value.
  const std::uint64_t no_resident = std::min<std::uint64_t>(
      state.instance().total_weight() + 1, std::numeric_limits<int>::max());
  out.assign(state.num_resources(), static_cast<int>(no_resident));
  for (UserId u = 0; u < assignment.size(); ++u) {
    const ResourceId r = assignment[u];
    const int t = thresholds[u];
    // Only satisfied residents gate admission: an already-unsatisfied
    // resident cannot be hurt further, and protecting it would permanently
    // block resources that hold infeasible users.
    if (t >= loads[r]) out[r] = std::min(out[r], t);
  }
}

void apply_with_admission(State& state,
                          const std::vector<MigrationRequest>& requests,
                          Counters& counters, AdmissionScratch& scratch) {
  counters.migrate_requests += requests.size();
  if (requests.empty()) return;

  const Instance& instance = state.instance();
  resident_min_thresholds(state, scratch.resident_min);
  const std::vector<int>& resident_min = scratch.resident_min;

  // One sort groups the requests by target (ascending, the order resources
  // are processed in) and orders each group by descending threshold there.
  std::vector<MigrationRequest>& sorted = scratch.sorted;
  sorted.assign(requests.begin(), requests.end());
  std::sort(sorted.begin(), sorted.end(),
            [&](const MigrationRequest& a, const MigrationRequest& b) {
              if (a.target != b.target) return a.target < b.target;
              const int ta = instance.threshold(a.user, a.target);
              const int tb = instance.threshold(b.user, b.target);
              if (ta != tb) return ta > tb;
              return a.user < b.user;  // deterministic tie-break
            });

  for (auto first = sorted.begin(); first != sorted.end();) {
    const ResourceId r = first->target;
    const auto last = std::find_if(first, sorted.end(),
                                   [r](const MigrationRequest& req) {
                                     return req.target != r;
                                   });
    const auto count = static_cast<std::size_t>(last - first);
    // post_load is the load after admitting the prefix [0, admitted] (its
    // weight sum on top of the current load).
    int post_load = state.load(r);
    std::size_t admitted = 0;
    while (admitted < count) {
      const UserId candidate = first[admitted].user;
      post_load += instance.weight(candidate);
      if (post_load > resident_min[r] ||
          post_load > instance.threshold(candidate, r))
        break;
      ++admitted;
    }
    for (std::size_t i = 0; i < admitted; ++i) state.move(first[i].user, r);
    counters.migrations += admitted;
    counters.grants += admitted;
    counters.rejects += count - admitted;
    first = last;
  }
}

}  // namespace qoslb
