// Tests for the CONGEST collective primitives: BFS forests, presence
// floods, and Algorithm 2 (popular-cluster detection), each validated
// against centralized ground truth.

#include <gtest/gtest.h>

#include <algorithm>

#include "congest/bfs_forest.hpp"
#include "congest/detect.hpp"
#include "congest/flood.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "path/bfs.hpp"
#include "path/source_detection.hpp"
#include "test_helpers.hpp"

namespace usne::congest {
namespace {

using test::keep_all;

TEST(BfsForestCongest, DistancesMatchCentralized) {
  const Graph g = gen_connected_gnm(200, 600, 21);
  Network net(g);
  const std::vector<Vertex> roots = {5, 60, 140};
  const BfsForest f = build_bfs_forest(net, roots, 8);
  const auto ref = multi_source_bfs(g, roots, 8);
  for (Vertex v = 0; v < 200; ++v) {
    if (ref.dist[static_cast<std::size_t>(v)] == kInfDist) {
      EXPECT_FALSE(f.spanned(v));
    } else {
      ASSERT_TRUE(f.spanned(v));
      EXPECT_EQ(f.depth[static_cast<std::size_t>(v)],
                ref.dist[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(BfsForestCongest, ParentsConsistent) {
  const Graph g = gen_torus(10, 10);
  Network net(g);
  const std::vector<Vertex> roots = {0, 55};
  const BfsForest f = build_bfs_forest(net, roots, 20);
  for (Vertex v = 0; v < 100; ++v) {
    if (!f.spanned(v)) continue;
    const Vertex p = f.parent[static_cast<std::size_t>(v)];
    if (f.depth[static_cast<std::size_t>(v)] == 0) {
      EXPECT_EQ(p, -1);
      EXPECT_EQ(f.root[static_cast<std::size_t>(v)], v);
    } else {
      ASSERT_NE(p, -1);
      EXPECT_TRUE(g.has_edge(v, p));
      EXPECT_EQ(f.depth[static_cast<std::size_t>(v)],
                f.depth[static_cast<std::size_t>(p)] + 1);
      EXPECT_EQ(f.root[static_cast<std::size_t>(v)],
                f.root[static_cast<std::size_t>(p)]);
    }
  }
}

TEST(BfsForestCongest, ChildrenInverseOfParents) {
  const Graph g = gen_tree(31, 2);
  Network net(g);
  const BfsForest f = build_bfs_forest(net, {0}, 10);
  const auto children = f.children();
  for (Vertex v = 0; v < 31; ++v) {
    for (const Vertex c : children[static_cast<std::size_t>(v)]) {
      EXPECT_EQ(f.parent[static_cast<std::size_t>(c)], v);
    }
  }
  // Every non-root appears in exactly one children list.
  std::size_t total = 0;
  for (const auto& list : children) total += list.size();
  EXPECT_EQ(total, 30u);
}

TEST(BfsForestCongest, RoundCostIsDepthPlusOne) {
  const Graph g = gen_cycle(30);
  Network net(g);
  build_bfs_forest(net, {0}, 7);
  EXPECT_EQ(net.stats().rounds, 8);  // depth + 1 join round
}

TEST(FloodCongest, DistanceToNearestSource) {
  const Graph g = gen_grid(8, 8);
  Network net(g);
  const std::vector<Vertex> sources = {0, 63};
  const FloodResult flood = flood_presence(net, sources, 6);
  const auto ref = multi_source_bfs(g, sources, 6);
  EXPECT_EQ(flood.dist, ref.dist);
  EXPECT_EQ(net.stats().rounds, 6);
}

TEST(FloodCongest, NoSources) {
  const Graph g = gen_path(5);
  Network net(g);
  const FloodResult flood = flood_presence(net, {}, 3);
  for (const Dist d : flood.dist) EXPECT_EQ(d, kInfDist);
  EXPECT_EQ(net.stats().rounds, 3);  // fixed schedule burns rounds anyway
}

// --- Algorithm 2 ---

TEST(DetectCongest, MatchesCentralizedWhenUncapped) {
  // With a cap larger than the source count, Algorithm 2 must produce the
  // exact same knowledge as the centralized k-nearest detection.
  const Graph g = gen_connected_gnm(150, 450, 33);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 150; v += 10) sources.push_back(v);
  const Dist delta = 5;
  const std::int64_t cap = 64;  // > |sources|

  Network net(g);
  const DetectResult dist_result =
      detect_congest(net, sources, delta, cap, keep_all(g));
  const SourceDetection ref = detect_sources(
      g, sources, delta, static_cast<std::size_t>(cap), keep_all(g));

  for (Vertex v = 0; v < 150; ++v) {
    const auto got = dist_result.at(v);
    const auto expected = ref.at(v);
    ASSERT_EQ(got.size(), expected.size()) << "vertex " << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].source, expected[i].source);
      EXPECT_EQ(got[i].dist, expected[i].dist);
    }
  }
}

TEST(DetectCongest, RoundCostIsDeltaTimesCap) {
  const Graph g = gen_cycle(20);
  Network net(g);
  detect_congest(net, {0, 10}, 4, 3, keep_all(g));
  EXPECT_EQ(net.stats().rounds, 12);
}

TEST(DetectCongest, PopularityClassificationExact) {
  // Theorem 3.1 (1): a center is popular iff it has >= deg other centers
  // within delta — regardless of forwarding caps.
  const Graph g = gen_connected_gnm(120, 360, 8);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 120; v += 3) sources.push_back(v);
  const Dist delta = 3;
  const double deg = 4.0;
  const std::int64_t cap = 5;  // deg + 1

  Network net(g);
  const DetectResult det = detect_congest(net, sources, delta, cap, keep_all(g));

  for (const Vertex c : sources) {
    // Ground truth: number of other sources within delta.
    const auto dist = bfs_distances(g, c);
    std::int64_t truly_near = 0;
    for (const Vertex s : sources) {
      if (s != c && dist[static_cast<std::size_t>(s)] <= delta) ++truly_near;
    }
    const bool truly_popular = static_cast<double>(truly_near) >= deg;
    const bool detected_popular =
        static_cast<double>(det.heard_others(c)) >= deg;
    EXPECT_EQ(detected_popular, truly_popular) << "center " << c;
  }
}

TEST(DetectCongest, UnpopularCentersKnowExactDistances) {
  // Theorem 3.1 (2): centers that hear fewer than cap sources know all
  // centers within delta with exact distances.
  const Graph g = gen_torus(12, 12);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 144; v += 12) sources.push_back(v);  // one per row
  const Dist delta = 4;
  const std::int64_t cap = 4;

  Network net(g);
  const DetectResult det = detect_congest(net, sources, delta, cap, keep_all(g));
  for (const Vertex c : sources) {
    if (static_cast<std::int64_t>(det.at(c).size()) >= cap) {
      continue;  // capped; no exactness promised
    }
    const auto dist = bfs_distances(g, c);
    for (const Vertex s : sources) {
      if (s == c || dist[static_cast<std::size_t>(s)] > delta) continue;
      EXPECT_EQ(det.distance_to(c, s), dist[static_cast<std::size_t>(s)])
          << c << " -> " << s;
    }
  }
}

TEST(DetectCongest, PathTracing) {
  const Graph g = gen_grid(6, 6);
  Network net(g);
  const std::vector<Vertex> sources = {0, 35};
  const DetectResult det = detect_congest(net, sources, 12, 8, keep_all(g));
  const auto path = det.path_to(35, 0);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 35);
  EXPECT_EQ(path.back(), 0);
  EXPECT_EQ(static_cast<Dist>(path.size()) - 1, det.distance_to(35, 0));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

}  // namespace
}  // namespace usne::congest
