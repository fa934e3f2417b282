// The paper (§2.1.1) observes that which clusters become popular depends on
// the order in which Algorithm 1 pops centers — but every guarantee must
// hold for EVERY order. This suite runs Algorithm 1 under randomized
// processing orders and checks the full contract each time. The order is
// a hook of the builder that a BuildSpec cannot carry, so these builds
// call build_emulator_centralized directly.

#include <gtest/gtest.h>

#include <numeric>

#include "core/audit.hpp"
#include "core/emulator_centralized.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

std::vector<Vertex> shuffled_order(Vertex n, std::uint64_t seed) {
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

class OrderInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderInvariance, FullContractUnderRandomOrder) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen_family(seed % 2 == 0 ? "er" : "caveman", 200, 31);
  const int kappa = 3 + static_cast<int>(seed % 3);
  const auto params = CentralizedParams::compute(g.num_vertices(), kappa, 0.25);

  const auto r = build_emulator_centralized(
      g, params, {}, shuffled_order(g.num_vertices(), seed * 7919));

  // (1) Size bound, regardless of which clusters happened to be popular.
  EXPECT_LE(r.h.num_edges(), size_bound_edges(g.num_vertices(), kappa));
  // (2) Stretch bound.
  const auto stretch = evaluate_stretch_exact(
      g, r.h, params.schedule.alpha_bound(), params.schedule.beta_bound());
  EXPECT_EQ(stretch.violations, 0) << "seed " << seed;
  EXPECT_EQ(stretch.underruns, 0);
  // (3) Structural audits.
  const auto report = audit_all(r, g, params.schedule, kappa, true);
  EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();
}

TEST_P(OrderInvariance, SameOrderSameEmulator) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen_family("ba", 150, 5);
  const auto params = CentralizedParams::compute(g.num_vertices(), 4, 0.25);
  const std::vector<Vertex> order = shuffled_order(g.num_vertices(), seed);
  const auto a = build_emulator_centralized(g, params, {}, order);
  const auto b = build_emulator_centralized(g, params, {}, order);
  EXPECT_EQ(a.h.edges(), b.h.edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderInvariance,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(OrderInvariance, DifferentOrdersMayDifferButBothValid) {
  // The star example writ large: orders can change |H| and the phase
  // structure, but never the guarantees. Document that sizes CAN differ.
  const Graph g = gen_star(100);
  const auto params = CentralizedParams::compute(100, 4, 0.25);

  std::vector<Vertex> center_last = shuffled_order(100, 3);
  // Force 0 to the very back.
  center_last.erase(std::find(center_last.begin(), center_last.end(), 0));
  center_last.push_back(0);

  const auto a = build_emulator_centralized(g, params, {}, {0});
  const auto b = build_emulator_centralized(g, params, {}, center_last);
  EXPECT_NE(a.phases[0].popular, b.phases[0].popular);
  for (const auto* r : {&a, &b}) {
    EXPECT_LE(r->h.num_edges(), size_bound_edges(100, 4));
    const auto report = audit_all(*r, g, params.schedule, 4, true);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

}  // namespace
}  // namespace usne
