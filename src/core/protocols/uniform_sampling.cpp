#include "core/protocols/uniform_sampling.hpp"

#include <vector>

#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace qoslb {

UniformSampling::UniformSampling(double migrate_prob, int probes_per_round)
    : migrate_prob_(migrate_prob), probes_(probes_per_round) {
  QOSLB_REQUIRE(migrate_prob > 0.0 && migrate_prob <= 1.0,
                "migrate_prob must be in (0,1]");
  QOSLB_REQUIRE(probes_per_round >= 1, "need at least one probe per round");
}

std::string UniformSampling::name() const {
  std::string n = "uniform(lambda=" + format_double(migrate_prob_, 3);
  if (probes_ != 1) n += ",k=" + std::to_string(probes_);
  return n + ")";
}

void UniformSampling::step_users(const State& state,
                                 const std::vector<int>& snapshot,
                                 const UserId* users, std::size_t count,
                                 MigrationBuffer& out, const RoundRng& streams,
                                 Counters& counters) {
  const Instance& instance = state.instance();
  const ResourceId* assignment = state.assignment().data();
  // Branchless SoA pass first, probe loop only over the survivors — the
  // per-user draws and append order match the historical inline prefilter
  // bit-for-bit (unsatisfied_prefilter contract).
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
    const bool requested = best != kNoResource && bernoulli(rng, migrate_prob_);
    if (requested) out.requests.push_back(MigrationRequest{u, best});
    // Decision tracing last, after every draw for u, so attaching a sink
    // cannot shift the stream (prefilter survivors are unsatisfied).
    if (out.decisions != nullptr && out.decisions->sampled(u))
      out.decisions->records.push_back(DecisionRecord{
          u, current, best, requested ? best : kNoResource,
          best != kNoResource ? instance.threshold(u, best) : 0, false});
  }
}

}  // namespace qoslb
