// Unit tests for the graph generators: sizes, degree structure,
// connectivity where promised, determinism.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/stream_gen.hpp"
#include "path/bfs.hpp"

namespace usne {
namespace {

TEST(Generators, GnmExactEdgeCount) {
  const Graph g = gen_gnm(100, 250, 1);
  EXPECT_EQ(g.num_vertices(), 100);
  EXPECT_EQ(g.num_edges(), 250);
}

TEST(Generators, GnmCapsAtCompleteGraph) {
  const Graph g = gen_gnm(5, 1000, 1);
  EXPECT_EQ(g.num_edges(), 10);
}

TEST(Generators, GnmDeterministic) {
  const Graph a = gen_gnm(64, 128, 7);
  const Graph b = gen_gnm(64, 128, 7);
  EXPECT_EQ(a.edges(), b.edges());
  const Graph c = gen_gnm(64, 128, 8);
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Generators, ConnectedGnmIsConnected) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = gen_connected_gnm(200, 300, seed);
    EXPECT_EQ(num_components(g), 1) << "seed " << seed;
    EXPECT_EQ(g.num_edges(), 300);
  }
}

TEST(Generators, Grid) {
  const Graph g = gen_grid(4, 5);
  EXPECT_EQ(g.num_vertices(), 20);
  // 4*4 horizontal + 3*5 vertical = 16+15 = 31.
  EXPECT_EQ(g.num_edges(), 31);
  EXPECT_EQ(num_components(g), 1);
}

TEST(Generators, TorusIsRegular) {
  const Graph g = gen_torus(5, 6);
  EXPECT_EQ(g.num_vertices(), 30);
  EXPECT_EQ(g.num_edges(), 60);  // 2 per vertex
  for (Vertex v = 0; v < 30; ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Generators, Hypercube) {
  const Graph g = gen_hypercube(5);
  EXPECT_EQ(g.num_vertices(), 32);
  EXPECT_EQ(g.num_edges(), 32 * 5 / 2);
  for (Vertex v = 0; v < 32; ++v) EXPECT_EQ(g.degree(v), 5);
  // Diameter of Q5 is 5.
  EXPECT_EQ(eccentricity(g, 0), 5);
}

TEST(Generators, PathCycleStar) {
  EXPECT_EQ(gen_path(10).num_edges(), 9);
  EXPECT_EQ(gen_cycle(10).num_edges(), 10);
  const Graph star = gen_star(10);
  EXPECT_EQ(star.num_edges(), 9);
  EXPECT_EQ(star.degree(0), 9);
  for (Vertex v = 1; v < 10; ++v) EXPECT_EQ(star.degree(v), 1);
}

TEST(Generators, Complete) {
  const Graph g = gen_complete(7);
  EXPECT_EQ(g.num_edges(), 21);
}

TEST(Generators, BalancedTree) {
  const Graph g = gen_tree(15, 2);
  EXPECT_EQ(g.num_edges(), 14);
  EXPECT_EQ(num_components(g), 1);
  EXPECT_EQ(g.degree(0), 2);  // root of a full binary tree
}

TEST(Generators, BarabasiAlbertShape) {
  const Graph g = gen_barabasi_albert(500, 3, 11);
  EXPECT_EQ(g.num_vertices(), 500);
  EXPECT_EQ(num_components(g), 1);
  // Heavy tail: some vertex far above the mean degree.
  EXPECT_GT(g.max_degree(), 3 * (2 * g.num_edges() / 500));
}

TEST(Generators, WattsStrogatz) {
  const Graph g = gen_watts_strogatz(300, 6, 0.1, 3);
  EXPECT_EQ(g.num_vertices(), 300);
  // ~nk/2 edges, some lost to rewire collisions.
  EXPECT_GT(g.num_edges(), 800);
  EXPECT_LE(g.num_edges(), 900);
}

TEST(Generators, Caveman) {
  const Graph g = gen_caveman(5, 6);
  EXPECT_EQ(g.num_vertices(), 30);
  // 5 cliques of C(6,2)=15 + 5 ring links.
  EXPECT_EQ(g.num_edges(), 80);
  EXPECT_EQ(num_components(g), 1);
}

TEST(Generators, Dumbbell) {
  const Graph g = gen_dumbbell(5, 4);
  EXPECT_EQ(g.num_vertices(), 14);
  EXPECT_EQ(num_components(g), 1);
  // Distance across the bridge: from one clique end to the other.
  const auto dist = bfs_distances(g, 0);
  EXPECT_GE(dist[13], 5);
}

TEST(Generators, RandomRegularDegreesBounded) {
  const Graph g = gen_random_regular(200, 4, 17);
  for (Vertex v = 0; v < 200; ++v) EXPECT_LE(g.degree(v), 4);
  // Most degrees should be exactly 4.
  int exact = 0;
  for (Vertex v = 0; v < 200; ++v) exact += (g.degree(v) == 4);
  EXPECT_GT(exact, 150);
}

TEST(Generators, FamilyDispatcherCoversAll) {
  for (const std::string& family : all_families()) {
    const Graph g = gen_family(family, 64, 5);
    EXPECT_GT(g.num_vertices(), 0) << family;
    EXPECT_GT(g.num_edges(), 0) << family;
  }
}

// A typo used to fall through to an empty graph in release builds.
TEST(Generators, UnknownFamilyThrows) {
  EXPECT_THROW(gen_family("erx", 128, 1), std::invalid_argument);
  std::string what;
  try {
    gen_family("erx", 128, 1);
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("'erx'"), std::string::npos) << what;
  for (const std::string& family : all_families()) {
    EXPECT_NE(what.find(family), std::string::npos) << family;
  }
}

TEST(Generators, FamilyDeterministic) {
  for (const std::string& family : all_families()) {
    const Graph a = gen_family(family, 128, 9);
    const Graph b = gen_family(family, 128, 9);
    EXPECT_EQ(a.edges(), b.edges()) << family;
  }
}

// --- streamed generators (graph/stream_gen.hpp) -----------------------------

TEST(StreamGen, GnmExactEdgeCountAndNoDuplicates) {
  StreamGenReport report;
  const Graph g = stream_gnm(300, 900, 3, &report);
  EXPECT_EQ(g.num_vertices(), 300);
  EXPECT_EQ(g.num_edges(), 900);  // exact, never truncated
  for (std::size_t i = 1; i < g.edges().size(); ++i) {
    EXPECT_LT(g.edges()[i - 1], g.edges()[i]);  // sorted strict => unique
  }
  EXPECT_EQ(report.edges, 900);
  EXPECT_GE(report.candidates, 900);
  EXPECT_GE(report.rounds, 1);
  EXPECT_GT(report.peak_bytes, 0);
  EXPECT_GT(report.bytes_per_edge, 0);
  // The whole point: peak stays within a small multiple of sizeof(Edge).
  EXPECT_LT(report.bytes_per_edge, 4.0 * sizeof(Edge));
}

TEST(StreamGen, GnmCapsAtCompleteGraphAndIsDeterministic) {
  EXPECT_EQ(stream_gnm(6, 1000, 1).num_edges(), 15);
  const Graph a = stream_gnm(128, 512, 11);
  const Graph b = stream_gnm(128, 512, 11);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_NE(a.edges(), stream_gnm(128, 512, 12).edges());
}

TEST(StreamGen, ConnectedGnmIsConnectedWithExactEdges) {
  StreamGenReport report;
  const Graph g = stream_connected_gnm(400, 1200, 5, &report);
  EXPECT_EQ(g.num_edges(), 1200);
  EXPECT_EQ(num_components(g), 1);
  EXPECT_EQ(report.edges, 1200);
  // Sparse ask below n-1 clamps up to a spanning path, still connected.
  const Graph tree_ish = stream_connected_gnm(50, 10, 5);
  EXPECT_EQ(tree_ish.num_edges(), 49);
  EXPECT_EQ(num_components(tree_ish), 1);
}

TEST(StreamGen, RmatExactEdgesSkewedDegrees) {
  StreamGenReport report;
  const Graph g = stream_rmat(10, 8 * 1024, 7, &report);  // n = 1024
  EXPECT_EQ(g.num_vertices(), 1024);
  EXPECT_EQ(g.num_edges(), 8 * 1024);
  EXPECT_EQ(report.edges, 8 * 1024);
  // Heavy tail: the hottest vertex sees far more than the mean degree 16.
  EXPECT_GT(g.max_degree(), 64);
  // Determinism.
  EXPECT_EQ(g.edges(), stream_rmat(10, 8 * 1024, 7).edges());
}

}  // namespace
}  // namespace usne
