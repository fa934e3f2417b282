// Tests for the hopset module: hop-limited Bellman–Ford correctness and
// the emulator-as-hopset behaviour the paper's §1.1 alludes to.

#include <gtest/gtest.h>

#include "api/build.hpp"
#include "core/params.hpp"
#include "graph/generators.hpp"
#include "hopset/hopset.hpp"
#include "path/bfs.hpp"

namespace usne {
namespace {

TEST(Hopset, LimitedHopsOnPlainGraph) {
  // Without H, d^(h)(u,v) is finite iff d_G(u,v) <= h, and equals d_G then.
  const Graph g = gen_path(10);
  const WeightedGraph empty(10);
  const auto d3 = limited_hop_distances(g, empty, 0, 3);
  for (Vertex v = 0; v < 10; ++v) {
    if (v <= 3) {
      EXPECT_EQ(d3[static_cast<std::size_t>(v)], v);
    } else {
      EXPECT_EQ(d3[static_cast<std::size_t>(v)], kInfDist);
    }
  }
}

TEST(Hopset, MonotoneInHops) {
  const Graph g = gen_connected_gnm(100, 300, 3);
  const WeightedGraph empty(100);
  auto prev = limited_hop_distances(g, empty, 0, 1);
  for (int h = 2; h <= 6; ++h) {
    const auto cur = limited_hop_distances(g, empty, 0, h);
    for (Vertex v = 0; v < 100; ++v) {
      EXPECT_LE(cur[static_cast<std::size_t>(v)], prev[static_cast<std::size_t>(v)]);
    }
    prev = cur;
  }
}

TEST(Hopset, ConvergesToBfsWithoutH) {
  const Graph g = gen_connected_gnm(80, 240, 5);
  const WeightedGraph empty(80);
  const auto full = limited_hop_distances(g, empty, 7, 80);
  EXPECT_EQ(full, bfs_distances(g, 7));
}

TEST(Hopset, EmulatorEdgesCutHops) {
  // A single emulator edge (0, n-1, n-1) makes the far end reachable in
  // one hop.
  const Vertex n = 50;
  const Graph g = gen_path(n);
  WeightedGraph h(n);
  h.add_edge(0, n - 1, n - 1);
  const auto d1 = limited_hop_distances(g, h, 0, 1);
  EXPECT_EQ(d1[static_cast<std::size_t>(n - 1)], n - 1);
  // And never shorter than the true distance.
  const auto exact = bfs_distances(g, 0);
  const auto d5 = limited_hop_distances(g, h, 0, 5);
  for (Vertex v = 0; v < n; ++v) {
    if (d5[static_cast<std::size_t>(v)] != kInfDist) {
      EXPECT_GE(d5[static_cast<std::size_t>(v)], exact[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Hopset, EmulatorReducesMeasuredHopbound) {
  // The headline behaviour: with the emulator as a hopset, far fewer
  // Bellman-Ford rounds reach near-exact distances.
  const Vertex side = 18;
  const Graph g = gen_torus(side, side);  // diameter = side (= 18)
  const auto params = CentralizedParams::compute(g.num_vertices(), 4, 0.25);
  const auto r = build(g, {.algorithm = "emulator_centralized",
                           .params = {.kappa = 4, .eps = 0.25}});

  const std::vector<Vertex> sources = {0, 100, 250};
  const double eps = params.schedule.alpha_bound() - 1.0;
  const Dist beta = params.schedule.beta_bound();

  const WeightedGraph empty(g.num_vertices());
  const auto without = measure_hopbound(g, empty, sources, eps, beta, 64);
  const auto with = measure_hopbound(g, r.h(), sources, eps, beta, 64);

  ASSERT_GT(with.hopbound, 0);
  ASSERT_GT(without.hopbound, 0);
  EXPECT_LE(with.hopbound, without.hopbound);
  EXPECT_GT(with.pairs, 0);
}

TEST(Hopset, UnreachableWithinBudgetReportsMinusOne) {
  const Graph g = gen_path(30);
  const WeightedGraph empty(30);
  // eps=0, beta=0: needs h = 29 for the far pair; max_hops=5 cannot do it.
  const auto report = measure_hopbound(g, empty, {0}, 0.0, 0, 5);
  EXPECT_EQ(report.hopbound, -1);
}

TEST(Hopset, ExactBudgetEqualsEccentricityHops) {
  const Graph g = gen_path(30);
  const WeightedGraph empty(30);
  const auto report = measure_hopbound(g, empty, {0}, 0.0, 0, 64);
  EXPECT_EQ(report.hopbound, 29);  // the full path length
  EXPECT_DOUBLE_EQ(report.worst_ratio, 1.0);
}

}  // namespace
}  // namespace usne
