// Unit tests for src/path: BFS variants, Dijkstra, APSP, and the
// (S, d, k)-source detection against brute force.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "path/apsp.hpp"
#include "path/bfs.hpp"
#include "path/dijkstra.hpp"
#include "path/source_detection.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

TEST(Bfs, PathDistances) {
  const Graph g = gen_path(6);
  const auto dist = bfs_distances(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(dist[static_cast<std::size_t>(v)], v);
}

TEST(Bfs, Unreachable) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const auto dist = bfs_distances(b.build(), 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], kInfDist);
  EXPECT_EQ(dist[3], kInfDist);
}

TEST(Bfs, BoundedMatchesFullWithinDepth) {
  const Graph g = gen_connected_gnm(300, 900, 4);
  const auto full = bfs_distances(g, 17);
  std::vector<Dist> dist(300, kInfDist);
  std::vector<Vertex> touched;
  bounded_bfs(g, 17, 3, dist, touched);
  for (Vertex v = 0; v < 300; ++v) {
    if (full[static_cast<std::size_t>(v)] <= 3) {
      EXPECT_EQ(dist[static_cast<std::size_t>(v)], full[static_cast<std::size_t>(v)]);
    } else {
      EXPECT_EQ(dist[static_cast<std::size_t>(v)], kInfDist);
    }
  }
  // Touched is exactly the ball.
  std::int64_t ball = 0;
  for (const Dist d : full) ball += (d <= 3);
  EXPECT_EQ(static_cast<std::int64_t>(touched.size()), ball);
}

TEST(Bfs, BoundedDepthZero) {
  const Graph g = gen_cycle(8);
  std::vector<Dist> dist(8, kInfDist);
  std::vector<Vertex> touched;
  bounded_bfs(g, 3, 0, dist, touched);
  EXPECT_EQ(touched.size(), 1u);
  EXPECT_EQ(dist[3], 0);
}

TEST(Bfs, MultiSourceNearest) {
  const Graph g = gen_path(10);  // 0-1-...-9
  const std::vector<Vertex> sources = {0, 9};
  const auto r = multi_source_bfs(g, sources, kInfDist);
  EXPECT_EQ(r.dist[2], 2);
  EXPECT_EQ(r.source[2], 0);
  EXPECT_EQ(r.dist[7], 2);
  EXPECT_EQ(r.source[7], 9);
  // Midpoint ties: distance is the min either way.
  EXPECT_EQ(r.dist[4], 4);
  EXPECT_EQ(r.dist[5], 4);
}

TEST(Bfs, MultiSourceParentsFormTree) {
  const Graph g = gen_connected_gnm(200, 500, 2);
  const std::vector<Vertex> sources = {3, 77, 150};
  const auto r = multi_source_bfs(g, sources, kInfDist);
  for (Vertex v = 0; v < 200; ++v) {
    if (r.parent[static_cast<std::size_t>(v)] == -1) continue;
    // Parent is one hop closer and has the same winning source.
    EXPECT_EQ(r.dist[static_cast<std::size_t>(v)],
              r.dist[static_cast<std::size_t>(r.parent[static_cast<std::size_t>(v)])] + 1);
    EXPECT_EQ(r.source[static_cast<std::size_t>(v)],
              r.source[static_cast<std::size_t>(r.parent[static_cast<std::size_t>(v)])]);
  }
}

TEST(Bfs, MultiSourceRespectsDepth) {
  const Graph g = gen_path(10);
  const auto r = multi_source_bfs(g, std::vector<Vertex>{0}, 4);
  EXPECT_EQ(r.dist[4], 4);
  EXPECT_EQ(r.dist[5], kInfDist);
}

TEST(Dijkstra, MatchesBfsOnUnitWeights) {
  const Graph g = gen_connected_gnm(150, 400, 6);
  WeightedGraph h(150);
  for (const Edge& e : g.edges()) h.add_edge(e.u, e.v, 1);
  const auto bfs = bfs_distances(g, 42);
  const auto dij = dijkstra(h, 42);
  EXPECT_EQ(bfs, dij);
}

TEST(Dijkstra, WeightedShortcuts) {
  // Path 0-1-2-3 plus a weighted shortcut 0-3 of weight 2.
  WeightedGraph h(4);
  h.add_edge(0, 1, 1);
  h.add_edge(1, 2, 1);
  h.add_edge(2, 3, 1);
  h.add_edge(0, 3, 2);
  const auto dist = dijkstra(h, 0);
  EXPECT_EQ(dist[3], 2);
  EXPECT_EQ(dist[2], 2);  // could go 0-1-2 or 0-3-2? 0-3 is 2, 3-2 is 1 => 3. min is 2.
}

TEST(Apsp, UnweightedMatchesPerSourceBfs) {
  const Graph g = gen_connected_gnm(80, 200, 9);
  const DistanceMatrix m = apsp_unweighted(g);
  for (Vertex s = 0; s < 80; s += 13) {
    const auto dist = bfs_distances(g, s);
    for (Vertex v = 0; v < 80; ++v) {
      EXPECT_EQ(m.at(s, v), dist[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Apsp, WeightedSymmetric) {
  WeightedGraph h(5);
  h.add_edge(0, 1, 3);
  h.add_edge(1, 2, 4);
  h.add_edge(0, 3, 10);
  const DistanceMatrix m = apsp_weighted(h);
  for (Vertex u = 0; u < 5; ++u) {
    for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(m.at(u, v), m.at(v, u));
  }
  EXPECT_EQ(m.at(0, 2), 7);
}

// --- Source detection ---

/// Brute-force reference: the k nearest sources of v within depth, ordered
/// by (dist, id).
std::vector<SourceHit> brute_k_nearest(const Graph& g,
                                       const std::vector<Vertex>& sources,
                                       Vertex v, Dist depth, std::size_t k) {
  std::vector<SourceHit> all;
  for (const Vertex s : sources) {
    const Dist d = bfs_distances(g, s)[static_cast<std::size_t>(v)];
    if (d <= depth) all.push_back({s, d, -1});
  }
  std::sort(all.begin(), all.end(), [](const SourceHit& a, const SourceHit& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.source < b.source;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(SourceDetection, MatchesBruteForce) {
  Rng rng(31);
  const Graph g = gen_connected_gnm(120, 360, 31);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 120; v += 7) sources.push_back(v);
  const Dist depth = 4;
  const std::size_t k = 3;
  const SourceDetection det = detect_sources(g, sources, depth, k);
  for (Vertex v = 0; v < 120; v += 11) {
    const auto expected = brute_k_nearest(g, sources, v, depth, k);
    const auto got = det.at(v);
    ASSERT_EQ(got.size(), expected.size()) << "vertex " << v;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].source, expected[i].source) << "vertex " << v;
      EXPECT_EQ(got[i].dist, expected[i].dist) << "vertex " << v;
    }
  }
}

TEST(SourceDetection, PathReconstruction) {
  const Graph g = gen_connected_gnm(100, 300, 13);
  std::vector<Vertex> sources = {5, 50, 95};
  const SourceDetection det = detect_sources(g, sources, 10, 3);
  for (Vertex v = 0; v < 100; v += 9) {
    for (const SourceHit& h : det.at(v)) {
      const auto path = det.path_to(v, h.source);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), v);
      EXPECT_EQ(path.back(), h.source);
      EXPECT_EQ(static_cast<Dist>(path.size()) - 1, h.dist);
      // Consecutive vertices are graph edges.
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
      }
    }
  }
}

TEST(SourceDetection, SelfIsFirstHit) {
  const Graph g = gen_cycle(12);
  std::vector<Vertex> sources = {0, 6};
  const SourceDetection det = detect_sources(g, sources, 12, 2);
  ASSERT_FALSE(det.at(0).empty());
  EXPECT_EQ(det.at(0)[0].source, 0);
  EXPECT_EQ(det.at(0)[0].dist, 0);
}

TEST(SourceDetection, DistanceToHelper) {
  const Graph g = gen_path(8);
  const SourceDetection det = detect_sources(g, std::vector<Vertex>{0}, 10, 2);
  EXPECT_EQ(det.distance_to(5, 0), 5);
  EXPECT_EQ(det.distance_to(5, 3), kInfDist);  // 3 is not a source
}

TEST(SourceDetection, CapRespected) {
  const Graph g = gen_star(20);
  std::vector<Vertex> sources;
  for (Vertex v = 1; v < 20; ++v) sources.push_back(v);
  const SourceDetection det = detect_sources(g, sources, 4, 5);
  // The center is within distance 1 of 19 sources; list is capped at 5.
  EXPECT_EQ(det.at(0).size(), 5u);
  // The 5 kept are the (dist, id)-smallest: sources 1..5 at distance 1.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(det.at(0)[i].dist, 1);
    EXPECT_EQ(det.at(0)[i].source, static_cast<Vertex>(i + 1));
  }
}

}  // namespace
}  // namespace usne
