// Cross-module integration tests: full pipelines combining generators,
// builders, serialization, and query answering — the workflows a
// downstream user of the library would actually run.

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "api/build.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "path/bfs.hpp"
#include "path/dijkstra.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

BuildOutput build_with(const Graph& g, const char* algorithm, int kappa,
                       double eps, double rho = 0.45) {
  return build(g, {.algorithm = algorithm,
                   .params = {.kappa = kappa, .eps = eps, .rho = rho}});
}

TEST(Integration, AllThreeBuildersSatisfySameContract) {
  // One input graph, three constructions (Algorithm 1, §3.3 fast, §3.1
  // CONGEST): all must satisfy the size bound and their respective stretch
  // budgets.
  const Vertex n = 144;
  const Graph g = gen_torus(12, 12);
  const int kappa = 4;

  const auto cp = CentralizedParams::compute(n, kappa, 0.3);
  const auto dp = DistributedParams::compute(n, kappa, 0.45, 0.4);
  for (const auto& [algorithm, eps, schedule] :
       {std::tuple{"emulator_centralized", 0.3, &cp.schedule},
        std::tuple{"emulator_fast", 0.4, &dp.schedule},
        std::tuple{"emulator_congest", 0.4, &dp.schedule}}) {
    const auto r = build_with(g, algorithm, kappa, eps);
    EXPECT_LE(r.h().num_edges(), size_bound_edges(n, kappa)) << algorithm;
    EXPECT_EQ(evaluate_stretch_exact(g, r.h(), schedule->alpha_bound(),
                                     schedule->beta_bound())
                  .violations,
              0)
        << algorithm;
    EXPECT_TRUE(r.endpoints_consistent()) << algorithm;
  }
}

TEST(Integration, EmulatorSurvivesSerialization) {
  const Graph g = gen_connected_gnm(200, 600, 4);
  const auto r = build_with(g, "emulator_centralized", 4, 0.25);

  std::stringstream ss;
  write_weighted_graph(ss, r.h());
  const auto back = read_weighted_graph(ss);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->num_edges(), r.h().num_edges());
  // Same distances from a few sources.
  for (Vertex s = 0; s < 200; s += 37) {
    EXPECT_EQ(dijkstra(r.h(), s), dijkstra(*back, s));
  }
}

TEST(Integration, OracleAnswersWithinBudget) {
  // The approximate-shortest-path application from the paper's intro:
  // answer point-to-point queries on H instead of G.
  const Vertex n = 300;
  const Graph g = gen_connected_gnm(n, 4 * n, 10);
  const auto params = CentralizedParams::compute(n, 4, 0.25);
  const auto r = build_with(g, "emulator_centralized", 4, 0.25);
  const double alpha = params.schedule.alpha_bound();
  const Dist beta = params.schedule.beta_bound();

  for (Vertex s = 0; s < n; s += 29) {
    const auto dg = bfs_distances(g, s);
    const auto dh = dijkstra(r.h(), s);
    for (Vertex v = 0; v < n; v += 7) {
      if (dg[static_cast<std::size_t>(v)] == kInfDist) continue;
      EXPECT_GE(dh[static_cast<std::size_t>(v)], dg[static_cast<std::size_t>(v)]);
      EXPECT_LE(static_cast<double>(dh[static_cast<std::size_t>(v)]),
                alpha * static_cast<double>(dg[static_cast<std::size_t>(v)]) +
                    static_cast<double>(beta));
    }
  }
}

TEST(Integration, EmulatorPlusGraphUnionNeverWorseThanEither) {
  const Graph g = gen_grid(15, 15);
  const auto r = build_with(g, "emulator_centralized", 4, 0.25);
  const auto dg = bfs_distances(g, 0);
  const auto dh = dijkstra(r.h(), 0);
  // H ∪ G: H's edges plus G's at unit weight (add_edge keeps the lighter
  // copy of an edge present in both).
  WeightedGraph hg = r.h();
  for (const Edge& e : g.edges()) hg.add_edge(e.u, e.v, 1);
  const auto du = dijkstra(hg, 0);
  for (Vertex v = 0; v < 225; ++v) {
    EXPECT_LE(du[static_cast<std::size_t>(v)], dg[static_cast<std::size_t>(v)]);
    EXPECT_LE(du[static_cast<std::size_t>(v)], dh[static_cast<std::size_t>(v)]);
    EXPECT_GE(du[static_cast<std::size_t>(v)], dg[static_cast<std::size_t>(v)] == kInfDist
                                                   ? 0
                                                   : dg[static_cast<std::size_t>(v)] /
                                                         2);  // sanity
  }
}

TEST(Integration, SpannerIsUsableAsGraph) {
  // A spanner, being a subgraph, can itself be fed back as an input graph.
  const Graph g = gen_connected_gnm(150, 600, 6);
  const auto r = build_with(g, "spanner", 8, 0.25, 0.4);

  GraphBuilder b(150);
  for (const WeightedEdge& e : r.h().edges()) b.add_edge(e.u, e.v);
  const Graph h_as_graph = b.build();
  EXPECT_EQ(h_as_graph.num_edges(), r.h().num_edges());

  // Building an emulator of the spanner composes the stretches.
  const auto r2 = build_with(h_as_graph, "emulator_centralized", 4, 0.25);
  EXPECT_LE(r2.h().num_edges(), size_bound_edges(150, 4));
}

TEST(Integration, UltraSparseHeadline) {
  // Corollary 2.15 in miniature: kappa = ceil(log n * f) with f ~ log log n
  // gives n + o(n) edges. For n = 1024, kappa = 40: bound = n^(1.025) =
  // 1.19n.
  const Vertex n = 1024;
  const Graph g = gen_connected_gnm(n, 8 * n, 42);
  const int kappa = 40;
  const auto params = CentralizedParams::compute(n, kappa, 0.4);
  const auto r = build_with(g, "emulator_centralized", kappa, 0.4);
  EXPECT_LE(r.h().num_edges(), size_bound_edges(n, kappa));
  EXPECT_LT(r.h().num_edges(), static_cast<std::int64_t>(1.2 * n));
  // Still a valid emulator.
  const auto report = evaluate_stretch_sampled(
      g, r.h(), params.schedule.alpha_bound(), params.schedule.beta_bound(),
      20, 3);
  EXPECT_EQ(report.violations, 0);
  EXPECT_EQ(report.underruns, 0);
}

}  // namespace
}  // namespace usne
