// Tests for Algorithm 1 (centralized ultra-sparse emulator): behavioural
// tests matching the paper's worked examples, plus size/stretch/audit
// verification on fixed graphs. The broad property sweeps live in
// test_emulator_property.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "api/build.hpp"
#include "core/audit.hpp"
#include "core/emulator_centralized.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "path/apsp.hpp"
#include "path/dijkstra.hpp"
#include "test_helpers.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

BuildOutput algorithm1(const Graph& g, int kappa, double eps) {
  return build(g, {.algorithm = "emulator_centralized",
                   .params = {.kappa = kappa, .eps = eps}});
}

TEST(EmulatorCentralized, TinyGraphs) {
  // n = 0, 1, 2: trivial but must not crash and must satisfy the size
  // bound.
  EXPECT_EQ(algorithm1(GraphBuilder(0).build(), 4, 0.25).h().num_edges(), 0);
  EXPECT_EQ(algorithm1(GraphBuilder(1).build(), 4, 0.25).h().num_edges(), 0);
  GraphBuilder b2(2);
  b2.add_edge(0, 1);
  const auto r2 = algorithm1(b2.build(), 4, 0.25);
  EXPECT_EQ(r2.h().num_edges(), 1);
  EXPECT_EQ(r2.h().edge_weight(0, 1), 1);
}

TEST(EmulatorCentralized, KappaOneIsGraphItself) {
  // kappa = 1: ell = 0, deg_0 = n, nothing is ever popular, delta_0 = 1:
  // the emulator is exactly G.
  const Graph g = gen_connected_gnm(60, 150, 3);
  const auto r = algorithm1(g, 1, 0.25);
  EXPECT_EQ(r.h().num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_EQ(r.h().edge_weight(e.u, e.v), 1);
}

TEST(EmulatorCentralized, StarOrderDependence) {
  // The paper's §2.1.1 example: on a star, if the center u0 is considered
  // first it is popular (n-1 >= deg_0 neighbours); if considered last, the
  // sets S_0, N_0 have been emptied by then and it is unpopular.
  const Vertex n = 64;
  const Graph star = gen_star(n);
  const auto params = CentralizedParams::compute(n, 4, 0.25);

  // The processing order is a hook of the builder, not of BuildSpec.
  const auto r_first = build_emulator_centralized(star, params, {}, {0});
  // Center considered first: phase 0 forms one supercluster holding all.
  EXPECT_EQ(r_first.phases[0].popular, 1);
  EXPECT_EQ(r_first.phases[0].clusters_out, 1);

  std::vector<Vertex> last(static_cast<std::size_t>(n));
  std::iota(last.begin(), last.end(), 0);
  std::rotate(last.begin(), last.begin() + 1, last.end());  // 1, 2, ..., n-1, 0
  const auto r_last = build_emulator_centralized(star, params, {}, last);
  // All leaves are unpopular (their only neighbour is the center, 1 <
  // deg_0); by the time 0 is considered, every leaf is in U_0 — but the
  // leaves remain in S_0 u N_0 only until popped, so 0 sees none left...
  // Actually leaves pop first and each connects to {0} (still in S_0).
  // When 0 finally pops, S_0 and N_0 are empty, so Gamma(0) is empty and 0
  // is unpopular: no superclusters at all.
  EXPECT_EQ(r_last.phases[0].popular, 0);
  EXPECT_EQ(r_last.phases[0].clusters_out, 0);

  // Both orders still produce valid emulators within the size bound.
  for (const auto* r : {&r_first, &r_last}) {
    EXPECT_LE(r->h.num_edges(), size_bound_edges(n, 4));
    const auto report = audit_all(*r, star, params.schedule, 4, true);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(EmulatorCentralized, SizeBoundLeadingConstantOne) {
  // The headline: |H| <= n^(1+1/kappa), not c * n^(1+1/kappa).
  for (const int kappa : {2, 3, 4, 8}) {
    const Graph g = gen_connected_gnm(400, 1600, 7);
    const auto r = algorithm1(g, kappa, 0.25);
    EXPECT_LE(r.h().num_edges(), size_bound_edges(400, kappa)) << "kappa " << kappa;
  }
}

TEST(EmulatorCentralized, WeightsAreExactDistances) {
  const Graph g = gen_connected_gnm(200, 500, 11);
  const auto r = algorithm1(g, 4, 0.25);
  const auto report = audit_edge_weights(r.result, g, /*exact=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(EmulatorCentralized, StretchWithinComputedBudget) {
  const Graph g = gen_connected_gnm(250, 600, 5);
  const auto params = CentralizedParams::compute(250, 4, 0.25);
  const auto r = algorithm1(g, 4, 0.25);
  const auto report = evaluate_stretch_exact(
      g, r.h(), params.schedule.alpha_bound(), params.schedule.beta_bound());
  EXPECT_TRUE(report.ok()) << "violations=" << report.violations
                           << " underruns=" << report.underruns;
  EXPECT_GT(report.pairs, 0);
}

TEST(EmulatorCentralized, NeverShortensDistances) {
  const Graph g = gen_torus(14, 14);
  const auto r = algorithm1(g, 3, 0.3);
  // d_H >= d_G for all pairs (alpha = inf budget: only check underruns).
  const auto report = evaluate_stretch_exact(g, r.h(), 1e18, kInfDist / 2);
  EXPECT_EQ(report.underruns, 0);
}

TEST(EmulatorCentralized, AuditsPassOnFixedGraphs) {
  for (const char* family : {"er", "torus", "caveman", "ba", "tree"}) {
    const Graph g = gen_family(family, 220, 13);
    const auto params = CentralizedParams::compute(g.num_vertices(), 4, 0.25);
    const auto r = algorithm1(g, 4, 0.25);
    const auto report =
        audit_all(r.result, g, params.schedule, 4, /*exact_weights=*/true);
    EXPECT_TRUE(report.ok()) << family << ": " << report.to_string();
  }
}

TEST(EmulatorCentralized, Deterministic) {
  const Graph g = gen_connected_gnm(300, 900, 17);
  const auto a = algorithm1(g, 4, 0.25).result;
  const auto b = algorithm1(g, 4, 0.25).result;
  ASSERT_EQ(a.h.num_edges(), b.h.num_edges());
  EXPECT_EQ(a.h.edges(), b.h.edges());
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].clusters_out, b.phases[i].clusters_out);
    EXPECT_EQ(a.phases[i].interconnect_edges, b.phases[i].interconnect_edges);
  }
}

TEST(EmulatorCentralized, DisconnectedGraph) {
  // Two components; all invariants hold per component, and no emulator edge
  // crosses components.
  GraphBuilder b(40);
  for (Vertex v = 0; v + 1 < 20; ++v) b.add_edge(v, v + 1);
  for (Vertex v = 20; v + 1 < 40; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();
  const auto r = algorithm1(g, 3, 0.25);
  for (const WeightedEdge& e : r.h().edges()) {
    EXPECT_EQ(e.u < 20, e.v < 20) << "edge crosses components";
  }
  const auto report = audit_edge_weights(r.result, g, true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(EmulatorCentralized, BufferJoinHappens) {
  // Paper Figure 4: clusters parked in N_i that no later supercluster
  // absorbs join their fallback supercluster at end of phase. A dumbbell
  // forces this: the clique is popular and buffers the first bridge vertex
  // (distance 2 = 2*delta_0), and nothing else ever absorbs it.
  const Graph g = gen_dumbbell(16, 6);
  const auto params = CentralizedParams::compute(g.num_vertices(), 2, 0.4);
  const BuildResult r = algorithm1(g, 2, 0.4).result;
  std::int64_t buffer_joins = 0;
  for (const auto& p : r.phases) buffer_joins += p.buffer_join_edges;
  EXPECT_GE(buffer_joins, 1);
  // Buffer-join weights are in (delta_i, 2*delta_i] by construction.
  for (const ChargedEdge& e : r.edge_log) {
    if (e.kind == EdgeKind::kBufferJoin) {
      const Dist delta = params.schedule.delta[static_cast<std::size_t>(e.phase)];
      EXPECT_GT(e.w, delta);
      EXPECT_LE(e.w, 2 * delta);
    }
  }
  // And the emulator is still exactly within the bound.
  EXPECT_LE(r.h.num_edges(), size_bound_edges(g.num_vertices(), 2));
  const auto report = audit_all(r, g, params.schedule, 2, true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(EmulatorCentralized, ChargingPerVertexBudget) {
  // No unpopular center is charged deg_i or more interconnection edges; no
  // center is charged more than one superclustering/buffer-join edge per
  // phase.
  const Graph g = gen_connected_gnm(300, 1200, 23);
  const auto params = CentralizedParams::compute(300, 4, 0.25);
  const BuildResult r = algorithm1(g, 4, 0.25).result;
  for (int phase = 0; phase <= params.schedule.ell(); ++phase) {
    std::vector<std::int64_t> ic_charge(300, 0);
    std::vector<std::int64_t> sc_charge(300, 0);
    for (const ChargedEdge& e : r.edge_log) {
      if (e.phase != phase) continue;
      if (e.kind == EdgeKind::kInterconnect) {
        ++ic_charge[static_cast<std::size_t>(e.charged_to)];
      } else {
        ++sc_charge[static_cast<std::size_t>(e.charged_to)];
      }
    }
    const double deg = params.schedule.deg[static_cast<std::size_t>(phase)];
    for (Vertex v = 0; v < 300; ++v) {
      EXPECT_LT(static_cast<double>(ic_charge[static_cast<std::size_t>(v)]), deg)
          << "phase " << phase << " vertex " << v;
      EXPECT_LE(sc_charge[static_cast<std::size_t>(v)], 1)
          << "phase " << phase << " vertex " << v;
    }
  }
}

TEST(EmulatorCentralized, SuperclustersHaveEnoughClusters) {
  // Lemma 2.1: every supercluster of P_{i+1} consists of >= deg_i + 1
  // clusters of P_i — verified via the phase stats identity
  // |P_{i+1}| * (deg_i + 1) <= |P_i| - |U_i|.
  const Graph g = gen_caveman(20, 10);
  const auto r = algorithm1(g, 2, 0.4);
  for (const auto& p : r.result.phases) {
    EXPECT_LE(static_cast<double>(p.clusters_out) * (p.deg_threshold + 1),
              static_cast<double>(p.clusters_in - p.unclustered) + 1e-6)
        << "phase " << p.phase;
  }
}

TEST(EmulatorCentralized, RejectsMismatchedParams) {
  const Graph g = gen_path(10);
  const auto params = CentralizedParams::compute(99, 4, 0.25);
  EXPECT_THROW(build_emulator_centralized(g, params), std::invalid_argument);
}

TEST(EmulatorCentralized, PathGraphIsCheap) {
  // A path has max degree 2: for deg_0 = n^(1/4) > 2 nobody is ever
  // popular at phase 0... unless n^(1/kappa) <= 2. With kappa=4, n=256:
  // deg_0 = 4 > 2 so phase 0 has no superclusters; every vertex
  // interconnects with <= 2 neighbours. |H| = |E| = n-1.
  const Graph g = gen_path(256);
  const auto r = algorithm1(g, 4, 0.25);
  EXPECT_EQ(r.result.phases[0].popular, 0);
  EXPECT_EQ(r.h().num_edges(), 255);
}

}  // namespace
}  // namespace usne
