#include "core/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "rng/distributions.hpp"
#include "rng/zipf.hpp"
#include "util/check.hpp"

namespace qoslb {
namespace {

int balanced_load(std::size_t n, std::size_t m) {
  return static_cast<int>((n + m - 1) / m);  // ⌈n/m⌉
}

std::vector<double> thresholds_to_requirements(const std::vector<int>& thresholds) {
  std::vector<double> reqs;
  reqs.reserve(thresholds.size());
  for (const int t : thresholds) {
    QOSLB_REQUIRE(t >= 1, "threshold must be at least 1");
    reqs.push_back(1.0 / static_cast<double>(t));
  }
  return reqs;
}

}  // namespace

Instance make_uniform_feasible(std::size_t n, std::size_t m, double slack,
                               double heterogeneity, Xoshiro256& rng) {
  QOSLB_REQUIRE(n >= 1 && m >= 1, "need users and resources");
  QOSLB_REQUIRE(slack >= 0.0 && slack < 1.0, "slack in [0,1)");
  QOSLB_REQUIRE(heterogeneity >= 1.0, "heterogeneity >= 1");
  const int load = balanced_load(n, m);
  const int t_min = static_cast<int>(
      std::ceil(static_cast<double>(load) / (1.0 - slack)));
  const int t_max = std::max(
      t_min, static_cast<int>(std::ceil(heterogeneity * t_min)));
  std::vector<int> thresholds(n);
  for (auto& t : thresholds)
    t = static_cast<int>(uniform_int(rng, t_min, t_max));
  return Instance::identical(m, 1.0, thresholds_to_requirements(thresholds));
}

Instance make_qos_classes(std::size_t m, std::size_t classes, int base_threshold,
                          double slack) {
  QOSLB_REQUIRE(m >= 1 && classes >= 1, "need resources and classes");
  QOSLB_REQUIRE(base_threshold >= 2, "base threshold too small");
  QOSLB_REQUIRE(slack >= 0.0 && slack < 1.0, "slack in [0,1)");
  std::vector<int> thresholds;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t c = j % classes;
    const int t = base_threshold << c;
    const int group = std::max(
        1, static_cast<int>(std::floor(t * (1.0 - slack))));
    for (int i = 0; i < group; ++i) thresholds.push_back(t);
  }
  return Instance::identical(m, 1.0, thresholds_to_requirements(thresholds));
}

Instance make_zipf(std::size_t n, std::size_t m, double exponent, Xoshiro256& rng) {
  QOSLB_REQUIRE(n >= 1 && m >= 1, "need users and resources");
  const int top = std::max(2, static_cast<int>((2 * n + m - 1) / m));
  const ZipfSampler zipf(6, exponent);
  std::vector<int> thresholds(n);
  for (auto& t : thresholds) {
    const auto rank = static_cast<int>(zipf(rng));
    t = std::max(1, top >> rank);
  }
  return Instance::identical(m, 1.0, thresholds_to_requirements(thresholds));
}

Instance make_overloaded(std::size_t n, std::size_t m, double overload) {
  QOSLB_REQUIRE(overload > 1.0, "overload factor must exceed 1");
  const int t = std::max(
      1, static_cast<int>(std::floor(static_cast<double>(n) /
                                     (static_cast<double>(m) * overload))));
  return Instance::identical(m, 1.0,
                             thresholds_to_requirements(std::vector<int>(n, t)));
}

Instance make_herding(std::size_t n) {
  QOSLB_REQUIRE(n >= 5, "herding instance needs n >= 5");
  const int t = static_cast<int>(3 * n / 5);
  return Instance::identical(2, 1.0,
                             thresholds_to_requirements(std::vector<int>(n, t)));
}

Instance make_related_capacities(std::size_t n, std::size_t m, double slack,
                                 std::size_t speed_classes, Xoshiro256& rng) {
  QOSLB_REQUIRE(n >= 1 && m >= 1, "need users and resources");
  QOSLB_REQUIRE(slack >= 0.0 && slack < 1.0, "slack in [0,1)");
  QOSLB_REQUIRE(speed_classes >= 1, "need at least one speed class");

  std::vector<double> capacities(m);
  double total_capacity = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    capacities[r] = static_cast<double>(1u << (r % speed_classes));
    total_capacity += capacities[r];
  }

  // Capacity-proportional loads (remainder on the fastest resources) give a
  // feasibility certificate: requirements are drawn low enough that every
  // user is satisfied under this assignment.
  std::vector<int> target_load(m);
  std::size_t placed = 0;
  for (std::size_t r = 0; r < m; ++r) {
    target_load[r] = static_cast<int>(
        std::floor(static_cast<double>(n) * capacities[r] / total_capacity));
    placed += static_cast<std::size_t>(target_load[r]);
  }
  std::size_t remainder = n - placed;
  while (remainder > 0) {
    const auto r = static_cast<std::size_t>(
        std::max_element(capacities.begin(), capacities.end()) -
        capacities.begin());
    // Spread the remainder round-robin over resources, weighted toward the
    // fastest first.
    for (std::size_t k = 0; k < m && remainder > 0; ++k) {
      ++target_load[(r + k) % m];
      --remainder;
    }
  }

  double q_base = capacities[0] / static_cast<double>(target_load[0] + 1);
  for (std::size_t r = 1; r < m; ++r)
    q_base = std::min(q_base,
                      capacities[r] / static_cast<double>(target_load[r] + 1));

  std::vector<double> requirements(n);
  for (auto& q : requirements)
    q = uniform_real(rng, 0.5, 1.0) * (1.0 - slack / 2.0) * q_base;
  return Instance(std::move(capacities), std::move(requirements));
}

Instance make_zipf_rates(std::size_t n, std::size_t m, double slack,
                         double exponent, Xoshiro256& rng) {
  QOSLB_REQUIRE(n >= 1 && m >= 1, "need users and resources");
  QOSLB_REQUIRE(slack >= 0.0 && slack < 1.0, "slack in [0,1)");

  // Worst rate = 2^-(ranks-1) from the user's class, halved again by the
  // per-pair jitter; the base threshold absorbs it so floor(rate·T) ≥ L on
  // every pair and the balanced assignment stays feasible.
  constexpr int kRanks = 4;
  constexpr double kWorstRate = 1.0 / (1 << kRanks);  // 2^-3 class · 0.5 jitter
  const int load = balanced_load(n, m);
  const int t_base = static_cast<int>(
      std::ceil(static_cast<double>(load) / ((1.0 - slack) * kWorstRate)));

  const ZipfSampler zipf(kRanks, exponent);
  std::vector<double> rates(n * m);
  for (std::size_t u = 0; u < n; ++u) {
    const auto rank = static_cast<int>(zipf(rng));
    const double user_rate = std::ldexp(1.0, -rank);
    for (std::size_t r = 0; r < m; ++r)
      rates[u * m + r] = bernoulli(rng, 0.5) ? 0.5 * user_rate : user_rate;
  }

  std::vector<double> capacities(m, 1.0);
  std::vector<double> requirements =
      thresholds_to_requirements(std::vector<int>(n, t_base));
  return Instance(std::move(capacities), std::move(requirements),
                  RateModel::matrix(n, m, std::move(rates)));
}

Instance make_clustered_bipartite(std::size_t n, std::size_t m,
                                  std::size_t clusters, std::size_t extra,
                                  double slack, Xoshiro256& rng) {
  QOSLB_REQUIRE(n >= 1, "need users");
  QOSLB_REQUIRE(clusters >= 1 && m >= clusters, "need m >= clusters >= 1");
  QOSLB_REQUIRE(slack >= 0.0 && slack < 1.0, "slack in [0,1)");

  // Round-robin partition; the fullest cluster fixes the base threshold so
  // the within-cluster balanced assignment is feasible for every cluster.
  int worst_load = 1;
  for (std::size_t c = 0; c < clusters; ++c) {
    const std::size_t users_c = n / clusters + (c < n % clusters ? 1 : 0);
    const std::size_t resources_c = m / clusters + (c < m % clusters ? 1 : 0);
    if (users_c >= 1)
      worst_load = std::max(worst_load, balanced_load(users_c, resources_c));
  }
  const int t_base = static_cast<int>(
      std::ceil(static_cast<double>(worst_load) / (1.0 - slack)));

  std::vector<RateEdge> edges;
  std::vector<ResourceId> remote;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t home = u % clusters;
    remote.clear();
    for (std::size_t r = 0; r < m; ++r) {
      if (r % clusters == home)
        edges.push_back({static_cast<UserId>(u), static_cast<ResourceId>(r), 1.0});
      else
        remote.push_back(static_cast<ResourceId>(r));
    }
    const std::size_t picks = std::min(extra, remote.size());
    for (const std::size_t i :
         sample_without_replacement(rng, remote.size(), picks))
      edges.push_back({static_cast<UserId>(u), remote[i], 0.5});
  }

  std::vector<double> capacities(m, 1.0);
  std::vector<double> requirements =
      thresholds_to_requirements(std::vector<int>(n, t_base));
  return Instance(std::move(capacities), std::move(requirements),
                  RateModel::bipartite(n, m, std::move(edges)));
}

Instance make_weighted_feasible(std::size_t n, std::size_t m, double slack,
                                std::size_t weight_classes, double skew,
                                Xoshiro256& rng) {
  QOSLB_REQUIRE(n >= 1 && m >= 1, "need users and resources");
  QOSLB_REQUIRE(slack >= 0.0 && slack < 1.0, "slack in [0,1)");
  QOSLB_REQUIRE(weight_classes >= 1 && weight_classes <= 20,
                "weight_classes out of range");

  const ZipfSampler zipf(weight_classes, skew);
  std::vector<std::uint32_t> weights(n);
  for (auto& w : weights) w = std::uint32_t{1} << zipf(rng);

  // LPT packing: heaviest first onto the currently lightest resource.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return weights[a] > weights[b]; });
  std::vector<std::uint64_t> packed_load(m, 0);
  for (const std::size_t u : order) {
    const auto lightest = static_cast<std::size_t>(
        std::min_element(packed_load.begin(), packed_load.end()) -
        packed_load.begin());
    packed_load[lightest] += weights[u];
  }
  const std::uint64_t peak =
      *std::max_element(packed_load.begin(), packed_load.end());

  const double threshold =
      std::ceil(static_cast<double>(peak) / (1.0 - slack));
  std::vector<double> requirements(n, 1.0 / threshold);
  return Instance(std::vector<double>(m, 1.0), std::move(requirements),
                  RateModel(), std::move(weights));
}

}  // namespace qoslb
