#pragma once

#include "core/protocol.hpp"

namespace qoslb {

/// P2 — concurrent uniform sampling: in every round each unsatisfied user
/// probes `probes_per_round` resources uniformly at random, picks the best
/// satisfying one (judged against the loads observed at the round start),
/// and migrates there with probability `migrate_prob` (λ).
///
/// λ = 1 exhibits the herding anomaly the paper's damping analysis targets:
/// many users jump onto the same almost-free resource and overshoot its
/// capacity, so the system can oscillate (E5 demonstrates this). λ < 1
/// thins the herd; the adaptive and admission variants remove it entirely.
class UniformSampling : public Protocol {
 public:
  explicit UniformSampling(double migrate_prob = 1.0, int probes_per_round = 1);

  std::string name() const override;

  bool supports_step_users() const override { return true; }
  bool active_set_compatible() const override { return true; }
  bool restricted_assignment_compatible() const override { return true; }
  bool weighted_compatible() const override { return true; }

  void step_users(const State& state, const std::vector<int>& load_snapshot,
                  const UserId* users, std::size_t count, MigrationBuffer& out,
                  const RoundRng& rng, Counters& counters) override;

  double migrate_prob() const { return migrate_prob_; }
  int probes_per_round() const { return probes_; }

 private:
  double migrate_prob_;
  int probes_;
};

}  // namespace qoslb
