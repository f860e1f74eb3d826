// GPU cluster scheduling — a domain scenario for the weighted-user model
// with per-(job, node) speeds.
//
// Jobs request 1, 2, 4, or 8 GPUs (their weight); a node's GPUs are shared
// fairly per requested GPU, so a job is in SLA while the node's total
// committed GPU count stays under its per-job threshold. The cluster has two
// hardware generations: 8 current-gen nodes and 16 older ones whose slower
// interconnect serves multi-GPU training jobs at 60% speed (a rate matrix,
// docs/heterogeneity.md) — small inference jobs run at full speed anywhere.
// The example shows the fragmentation phenomenon weights introduce: after a
// wave of small jobs lands, an 8-GPU training job can be unschedulable on
// every node even though the cluster has plenty of aggregate headroom — and
// how the speed penalty shrinks the effective capacity the big jobs see, so
// they need extra slack the uniform-speed model hides.

#include <iostream>

#include "qoslb.hpp"

using namespace qoslb;

namespace {

constexpr std::size_t kJobs = 400;
constexpr std::size_t kNodes = 24;
constexpr std::size_t kNewGenNodes = 8;  // nodes [0, 8) are current-gen
constexpr double kOldGenTrainingSpeed = 0.6;
constexpr std::uint64_t kRoundCap = 1000;

/// Two-generation cluster: big jobs (weight >= 4, i.e. multi-GPU training)
/// run at reduced speed on the 16 old-gen nodes; everything else at 1.0.
Instance add_node_generations(const Instance& base) {
  std::vector<double> capacities, requirements;
  std::vector<std::uint32_t> weights;
  std::vector<double> rates(base.num_users() * base.num_resources(), 1.0);
  for (ResourceId r = 0; r < base.num_resources(); ++r)
    capacities.push_back(base.capacity(r));
  for (UserId u = 0; u < base.num_users(); ++u) {
    requirements.push_back(base.requirement(u));
    weights.push_back(static_cast<std::uint32_t>(base.weight(u)));
    if (base.weight(u) >= 4)
      for (ResourceId r = kNewGenNodes; r < base.num_resources(); ++r)
        rates[u * base.num_resources() + r] = kOldGenTrainingSpeed;
  }
  return Instance(std::move(capacities), std::move(requirements),
                  RateModel::matrix(base.num_users(), base.num_resources(),
                                    std::move(rates)),
                  std::move(weights));
}

void run_cluster(double slack, bool two_generations,
                 const ProtocolSpec& spec, std::uint64_t cap,
                 TablePrinter& table) {
  Xoshiro256 rng(2026);
  // 400 jobs over 24 nodes; weights 1/2/4/8 with a Zipf(1.0) mix
  // (mostly small inference jobs, a tail of multi-GPU training runs).
  const Instance uniform_speed =
      make_weighted_feasible(kJobs, kNodes, slack, /*weight_classes=*/4,
                             /*skew=*/1.0, rng);
  const Instance cluster =
      two_generations ? add_node_generations(uniform_speed) : uniform_speed;

  // Jobs arrive through one submission queue: everything starts on node 0.
  State state = State::all_on(cluster, 0);
  Xoshiro256 run_rng(7);
  EngineConfig config;
  config.max_rounds = cap;
  const auto scheduler = make_protocol(spec);
  const EngineResult result = Engine(config).run(*scheduler, state, run_rng);

  std::size_t heavy_total = 0, heavy_happy = 0;
  for (UserId job = 0; job < cluster.num_users(); ++job) {
    if (cluster.weight(job) < 8) continue;
    ++heavy_total;
    if (state.satisfied(job)) ++heavy_happy;
  }
  table.cell(scheduler->name())
      .cell(two_generations ? "2-gen" : "uniform")
      .cell(slack)
      .cell(static_cast<unsigned long long>(result.rounds))
      .cell(static_cast<unsigned long long>(result.counters.migrations))
      .cell(static_cast<double>(result.final_satisfied) /
            static_cast<double>(cluster.num_users()))
      .cell(heavy_total == 0
                ? 1.0
                : static_cast<double>(heavy_happy) /
                      static_cast<double>(heavy_total))
      .cell(static_cast<double>(result.final_satisfied_weight) /
            static_cast<double>(cluster.total_weight()))
      .end_row();
}

}  // namespace

int main() {
  std::cout << "GPU cluster: 400 jobs (1/2/4/8 GPUs, Zipf mix), 24 nodes "
               "(8 current-gen, 16 old-gen at 60% training speed),\n"
               "all jobs submitted to node 0\n\n";
  TablePrinter table({"scheduler", "speeds", "slack", "rounds", "migrations",
                      "jobs_in_sla", "8gpu_jobs_in_sla", "gpu_weight_in_sla"});
  for (const double slack : {0.05, 0.15, 0.3, 0.5}) {
    for (const bool two_generations : {false, true}) {
      ProtocolSpec gated;
      gated.kind = "admission";
      run_cluster(slack, two_generations, gated, kRoundCap, table);
      // Ungated optimistic migration for contrast.
      ProtocolSpec ungated;
      ungated.kind = "uniform";
      ungated.lambda = 0.5;
      run_cluster(slack, two_generations, ungated, kRoundCap, table);
    }
  }
  table.print(std::cout);
  std::cout <<
      "\nThe admission gate sorts requesters by threshold, so big jobs get\n"
      "placed before small ones fill the gaps: full SLA in 1-5 rounds with\n"
      "zero wasted migrations on the uniform-speed cluster. The ungated\n"
      "scheduler needs 2-4x the rounds and up to +15% migrations at tight\n"
      "slack — overshoot plus the weighted fragmentation effect that\n"
      "bench/e13_weighted quantifies at larger weight spreads.\n"
      "\n"
      "The 2-gen rows add speeds: training jobs' thresholds shrink 40% on\n"
      "the 16 old nodes, so the effective capacity the 8-GPU jobs see is\n"
      "much smaller than the aggregate — at tight slack they end up out of\n"
      "SLA even when every small job is happy, and only extra slack (or\n"
      "pinning them to current-gen nodes) recovers them. The uniform-speed\n"
      "model cannot express this failure mode at all. At slack 0.05 the\n"
      "gated run can even stall at the round cap: an out-of-SLA job still\n"
      "sees a node where it would fit, but that node's in-SLA residents\n"
      "veto it every round.\n";
  return 0;
}
