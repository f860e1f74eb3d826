#include "core/protocols/admission_control.hpp"

#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace qoslb {

AdmissionControl::AdmissionControl(int probes_per_round) : probes_(probes_per_round) {
  QOSLB_REQUIRE(probes_per_round >= 1, "need at least one probe per round");
}

std::string AdmissionControl::name() const {
  return probes_ == 1 ? "admission" : "admission(k=" + std::to_string(probes_) + ")";
}

void AdmissionControl::step_users(const State& state,
                                  const std::vector<int>& snapshot,
                                  const UserId* users, std::size_t count,
                                  MigrationBuffer& out, const RoundRng& streams,
                                  Counters& counters) {
  const Instance& instance = state.instance();
  const ResourceId* assignment = state.assignment().data();
  for (const UserId u : unsatisfied_prefilter(state, snapshot, users, count,
                                              out.survivors)) {
    const ResourceId current = assignment[u];
    const int w = instance.weight(u);
    PhiloxEngine rng = streams.user_stream(u);
    ResourceId best = kNoResource;
    double best_quality = 0.0;
    for (int probe = 0; probe < probes_; ++probe) {
      const ResourceId r = sample_reachable(state, u, rng);
      ++counters.probes;
      if (r == kNoResource || r == current) continue;
      if (snapshot[r] + w > instance.threshold(u, r)) continue;
      const double quality = instance.quality(u, r, snapshot[r] + w);
      if (best == kNoResource || quality > best_quality) {
        best = r;
        best_quality = quality;
      }
    }
    if (best != kNoResource) out.requests.push_back(MigrationRequest{u, best});
    // Decision tracing last, after every draw for u; whether the request is
    // granted is resolved by the engine after the admission commit.
    if (out.decisions != nullptr && out.decisions->sampled(u))
      out.decisions->records.push_back(DecisionRecord{
          u, current, best, best,
          best != kNoResource ? instance.threshold(u, best) : 0, false});
  }
}

void AdmissionControl::commit_round(State& state,
                                    std::vector<MigrationBuffer>& shards,
                                    Counters& counters) {
  merge_shard_requests(shards, merge_scratch_);
  apply_with_admission(state, merge_scratch_, counters, admission_scratch_);
}

}  // namespace qoslb
