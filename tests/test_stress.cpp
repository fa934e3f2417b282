// Model-based stress tests: WeightedGraph against a std::map reference
// model under long random operation sequences, and a full-pipeline soak
// across every generator family.

#include <gtest/gtest.h>

#include <map>

#include "api/build.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "hopset/hopset.hpp"
#include "path/bfs.hpp"
#include "path/dijkstra.hpp"
#include "serve/query_engine.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

TEST(WeightedGraphStress, MatchesReferenceModel) {
  const Vertex n = 60;
  Rng rng(2024);
  WeightedGraph h(n);
  std::map<std::pair<Vertex, Vertex>, Dist> model;

  for (int op = 0; op < 20000; ++op) {
    Vertex u = static_cast<Vertex>(rng.below(n));
    Vertex v = static_cast<Vertex>(rng.below(n));
    const Dist w = rng.between(1, 50);
    const bool accepted = h.add_edge(u, v, w);
    if (u == v) {
      EXPECT_FALSE(accepted);
      continue;
    }
    ASSERT_TRUE(accepted);
    if (u > v) std::swap(u, v);
    const auto it = model.find({u, v});
    if (it == model.end()) {
      model[{u, v}] = w;
    } else {
      it->second = std::min(it->second, w);
    }
    // Periodic full consistency check.
    if (op % 4000 == 3999) {
      ASSERT_EQ(h.num_edges(), static_cast<std::int64_t>(model.size()));
      for (const auto& [key, weight] : model) {
        ASSERT_EQ(h.edge_weight(key.first, key.second), weight);
      }
      // Adjacency is symmetric and complete.
      std::int64_t arcs = 0;
      for (Vertex x = 0; x < n; ++x) arcs += static_cast<std::int64_t>(h.adjacency(x).size());
      ASSERT_EQ(arcs, 2 * h.num_edges());
    }
  }
}

TEST(PipelineSoak, EveryFamilyEndToEnd) {
  // Generator -> Algorithm 1 -> size/stretch -> oracle spot checks, for
  // every family the library ships. Catches family-specific structural
  // corner cases (isolated vertices, cliques, bridges...).
  for (const std::string& family : all_families()) {
    const Graph g = gen_family(family, 180, 99);
    const Vertex n = g.num_vertices();
    const auto params = CentralizedParams::compute(n, 4, 0.25);
    const auto r = build(g, {.algorithm = "emulator_centralized",
                             .params = {.kappa = 4, .eps = 0.25}});
    EXPECT_LE(r.h().num_edges(), size_bound_edges(n, 4)) << family;
    const auto stretch = evaluate_stretch_sampled(
        g, r.h(), params.schedule.alpha_bound(), params.schedule.beta_bound(),
        6, 5);
    EXPECT_TRUE(stretch.ok()) << family << " violations=" << stretch.violations;
  }
}

TEST(PipelineSoak, FastBuilderEveryFamily) {
  for (const std::string& family : all_families()) {
    const Graph g = gen_family(family, 180, 77);
    const Vertex n = g.num_vertices();
    const auto params = DistributedParams::compute(n, 8, 0.4, 0.3);
    const auto r = build(g, {.algorithm = "emulator_fast",
                             .params = {.kappa = 8, .eps = 0.3, .rho = 0.4}});
    EXPECT_LE(r.h().num_edges(), size_bound_edges(n, 8)) << family;
    const auto stretch = evaluate_stretch_sampled(
        g, r.h(), params.schedule.alpha_bound(), params.schedule.beta_bound(),
        6, 3);
    EXPECT_TRUE(stretch.ok()) << family << " violations=" << stretch.violations;
  }
}

TEST(PipelineSoak, RepeatedBuildsShareNothing) {
  // Re-entrancy: building twice from the same graph object and
  // interleaving queries must not interfere.
  const Graph g = gen_connected_gnm(200, 600, 8);
  const BuildSpec spec{.algorithm = "emulator_centralized",
                       .params = {.kappa = 4, .eps = 0.25}};
  const auto a = build(g, spec);
  const auto dist_a_before = dijkstra(a.h(), 0);
  const auto b = build(g, spec);
  const auto dist_a_after = dijkstra(a.h(), 0);
  EXPECT_EQ(dist_a_before, dist_a_after);
  EXPECT_EQ(a.h().edges(), b.h().edges());
}

TEST(PipelineSoak, HopsetAndOracleComposition) {
  // Use the serving engine's emulator as a hopset: the two applications
  // compose.
  const Graph g = gen_torus(16, 16);
  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params = {8, 0.25, 0.4, false};
  spec.exec.keep_audit_data = false;
  const serve::QueryEngine engine(build(g, spec));
  const auto report = measure_hopbound(g, engine.emulator(), {0, 37},
                                       engine.alpha() - 1.0, engine.beta(), 64);
  ASSERT_GT(report.hopbound, 0);
  // The torus hop radius from these sources is 16; the emulator must not
  // make it worse.
  EXPECT_LE(report.hopbound, 16 + 1);
}

}  // namespace
}  // namespace usne
