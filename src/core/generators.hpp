#pragma once

#include "core/instance.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {

/// Instance families used across the experiments (DESIGN.md §3). Thresholds
/// are encoded via capacity 1 and requirement q_u = 1/T_u unless stated
/// otherwise, so threshold(u, r) == T_u exactly on unit-capacity resources.

/// Feasible-by-construction with slack β ∈ [0, 1): every user's threshold is
/// at least ⌈L / (1−β)⌉ with L = ⌈n/m⌉ (balanced load), so the balanced
/// assignment satisfies everyone with ~β relative headroom. `heterogeneity`
/// h ≥ 1 spreads thresholds uniformly over [T_min, ⌈h·T_min⌉].
Instance make_uniform_feasible(std::size_t n, std::size_t m, double slack,
                               double heterogeneity, Xoshiro256& rng);

/// k geometric QoS classes: class c has threshold B·2^c; resource j hosts
/// class (j mod k) with ⌊T_c·(1−β)⌋ users, so the instance is feasible with
/// slack β. n is implied by the construction (use num_users()).
Instance make_qos_classes(std::size_t m, std::size_t classes, int base_threshold,
                          double slack);

/// Zipf-skewed demands: threshold T = max(1, L >> rank) with L = ⌈2n/m⌉ and
/// rank drawn from Zipf(exponent) over 6 demand classes — many light users,
/// few very demanding ones. Feasibility is NOT guaranteed (by design; E7).
Instance make_zipf(std::size_t n, std::size_t m, double exponent, Xoshiro256& rng);

/// Overloaded instance: every user has threshold ⌊n/(m·overload)⌋ (min 1), so
/// at most ~n/overload users can be satisfied simultaneously. overload > 1.
Instance make_overloaded(std::size_t n, std::size_t m, double overload);

/// Adversarial herding instance (E5): two resources, every threshold 3n/5.
/// Under undamped concurrent full-scan sampling from the all-on-one state the
/// entire population jumps back and forth forever; damping λ < 1 breaks the
/// symmetry. n must be ≥ 5.
Instance make_herding(std::size_t n);

/// Related (heterogeneous-capacity) instance: capacities follow powers of two
/// across `speed_classes` classes; user requirements drawn so the balanced
/// capacity-proportional assignment is feasible with slack β.
Instance make_related_capacities(std::size_t n, std::size_t m, double slack,
                                 std::size_t speed_classes, Xoshiro256& rng);

/// Heterogeneous service rates (docs/heterogeneity.md): a dense rate matrix
/// with per-user Zipf(exponent) rate classes over 4 ranks (rate 2^-rank) and
/// independent per-(user, resource) halving jitter. All rates are positive,
/// so the instance is NOT restricted — sampling keeps the uniform fast path
/// — but thresholds genuinely vary per pair. The base threshold absorbs the
/// worst rate, so the balanced assignment stays feasible with slack β.
Instance make_zipf_rates(std::size_t n, std::size_t m, double slack,
                         double exponent, Xoshiro256& rng);

/// Restricted assignment via a locality-clustered access graph: resources
/// and users are partitioned round-robin into `clusters` groups; each user
/// reaches its whole home cluster at rate 1.0 plus `extra` distinct remote
/// resources at rate 0.5. Thresholds make the within-cluster balanced
/// assignment feasible with slack β; remote edges are lower-quality escape
/// hatches. Requires m ≥ clusters ≥ 1.
Instance make_clustered_bipartite(std::size_t n, std::size_t m,
                                  std::size_t clusters, std::size_t extra,
                                  double slack, Xoshiro256& rng);

/// Feasible-by-construction weighted instance (DESIGN.md §6). Weights are
/// drawn from {1, 2, 4, ..., 2^(weight_classes-1)} with Zipf(skew) class
/// frequencies (skew 0 = uniform classes; larger = mostly light users with a
/// heavy tail). Users are packed LPT-style onto the m unit-capacity
/// resources; every threshold is then set to ⌈W_peak / (1−slack)⌉ where
/// W_peak is the packing's maximum load, so the packing certifies
/// feasibility.
Instance make_weighted_feasible(std::size_t n, std::size_t m, double slack,
                                std::size_t weight_classes, double skew,
                                Xoshiro256& rng);

}  // namespace qoslb
