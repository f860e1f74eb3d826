#pragma once

#include <vector>

#include "core/state.hpp"

namespace qoslb {

/// Satisfaction-equilibrium predicates (Definition in DESIGN.md §1): a user
/// has a *satisfying deviation* if some other resource would satisfy it after
/// the move; a state is a satisfaction equilibrium iff no unsatisfied user
/// has a satisfying deviation.

/// Would user u be satisfied on resource r after moving there? Counts u's
/// weight in the destination load; true for r == current iff u is currently
/// satisfied.
bool satisfied_after_move(const State& state, UserId u, ResourceId r);

/// O(m) scan over all resources.
bool has_satisfying_deviation(const State& state, UserId u);

/// The satisfying deviation with the highest post-move quality, or
/// kNoResource. Ties break toward the lowest resource id.
ResourceId best_satisfying_deviation(const State& state, UserId u);

/// True iff every user is satisfied or deviation-free. Uses an O(n + m)
/// fast path for identical capacities (only the two smallest loads matter)
/// and an O(n·m) scan otherwise.
bool is_satisfaction_equilibrium(const State& state);

/// All users currently unsatisfied, ascending id.
std::vector<UserId> unsatisfied_users(const State& state);

}  // namespace qoslb
