// Unit tests for src/path: BFS variants, Dijkstra, APSP, and the
// (S, d, k)-source detection against brute force, against pinned digests
// of its full output, and against the predecessor rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "path/apsp.hpp"
#include "path/bfs.hpp"
#include "path/dijkstra.hpp"
#include "path/source_detection.hpp"
#include "serve/query_engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

using test::keep_all;

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

TEST(Bfs, MultiSourceOutOfRangeThrows) {
  const Graph g = gen_path(10);
  EXPECT_THROW(multi_source_bfs(g, std::vector<Vertex>{10}, 4), std::out_of_range);
  EXPECT_THROW(multi_source_bfs(g, std::vector<Vertex>{2, -1}, 4),
               std::out_of_range);
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
  const SourceDetection det = detect_sources(g, sources, depth, k, keep_all(g));
  for (Vertex v = 0; v < 120; ++v) {
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
  const SourceDetection det = detect_sources(g, sources, 10, 3, keep_all(g));
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
  const SourceDetection det = detect_sources(g, sources, 12, 2, keep_all(g));
  ASSERT_FALSE(det.at(0).empty());
  EXPECT_EQ(det.at(0)[0].source, 0);
  EXPECT_EQ(det.at(0)[0].dist, 0);
}

TEST(SourceDetection, DistanceToHelper) {
  const Graph g = gen_path(8);
  const SourceDetection det =
      detect_sources(g, std::vector<Vertex>{0}, 10, 2, keep_all(g));
  EXPECT_EQ(det.distance_to(5, 0), 5);
  EXPECT_EQ(det.distance_to(5, 3), kInfDist);  // 3 is not a source
}

TEST(SourceDetection, CapRespected) {
  const Graph g = gen_star(20);
  std::vector<Vertex> sources;
  for (Vertex v = 1; v < 20; ++v) sources.push_back(v);
  const SourceDetection det = detect_sources(g, sources, 4, 5, keep_all(g));
  // The center is within distance 1 of 19 sources; list is capped at 5.
  EXPECT_EQ(det.at(0).size(), 5u);
  // The 5 kept are the (dist, id)-smallest: sources 1..5 at distance 1.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(det.at(0)[i].dist, 1);
    EXPECT_EQ(det.at(0)[i].source, static_cast<Vertex>(i + 1));
  }
}

TEST(SourceDetection, OutOfRangeSourceThrows) {
  const Graph g = gen_path(8);
  EXPECT_THROW(detect_sources(g, std::vector<Vertex>{8}, 3, 2, keep_all(g)),
               std::out_of_range);
  EXPECT_THROW(detect_sources(g, std::vector<Vertex>{0, -1}, 3, 2, keep_all(g)),
               std::out_of_range);
  // Checked before the cap is looked at: k = 0 records nothing, but a bad
  // source is still an error.
  EXPECT_THROW(detect_sources(g, std::vector<Vertex>{9}, 3, 0, keep_all(g)),
               std::out_of_range);
  try {
    detect_sources(g, std::vector<Vertex>{1, 12}, 3, 2, keep_all(g));
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("12"), std::string::npos) << e.what();
  }
}

/// FNV-1a over detect_sources' whole output: every vertex's hit count and
/// each hit's (source, dist, pred), in list order.
std::uint64_t detection_digest(const SourceDetection& det) {
  std::uint64_t h = serve::kChecksumSeed;
  for (Vertex v = 0; v < det.num_vertices(); ++v) {
    const auto hits = det.at(v);
    h = serve::checksum_accumulate(h, static_cast<std::int64_t>(hits.size()));
    for (const SourceHit& hit : hits) {
      h = serve::checksum_accumulate(h, hit.source);
      h = serve::checksum_accumulate(h, hit.dist);
      h = serve::checksum_accumulate(h, hit.pred);
    }
  }
  return h;
}

/// Vertices 1, 1 + every, 1 + 2 * every, ... below n; none when every == 0.
std::vector<Vertex> every_nth(Vertex n, Vertex every) {
  std::vector<Vertex> out;
  if (every <= 0) return out;
  for (Vertex v = 1; v < n; v += every) out.push_back(v);
  return out;
}

struct DetectPin {
  const char* family;
  Vertex every;     // sources: every_nth(n, every)
  Dist depth;
  std::size_t cap;  // k
  std::uint64_t digest;

  std::string name() const {
    return std::string(family) + " every=" + std::to_string(every) +
           " depth=" + std::to_string(depth) + " cap=" + std::to_string(cap);
  }
};

// Digests of the full output on n = 2048 graphs (seed 7), recorded with
// the per-vertex-list implementation that the flat source-major one
// replaced. Every hit of every vertex enters the digest, so a changed
// source, distance, predecessor or list order anywhere moves it.
constexpr std::size_t kNoCap = static_cast<std::size_t>(-1);
constexpr DetectPin kDetectPins[] = {
    {"er", 7, 4, 3, 0x544c2d2565f23f9bULL},
    {"er", 1, 2, 5, 0x5d5e2648460b5d1aULL},  // every vertex a source (phase 0)
    {"er", 13, 6, 1, 0x94810bf72de68fadULL},
    {"er", 7, 4, 0, 0x9c1bda7f8c872325ULL},  // k = 0: nothing recorded
    {"er", 0, 4, 3, 0x9c1bda7f8c872325ULL},  // no sources
    {"caveman", 5, 5, 4, 0x75b3014eca67bdefULL},
    {"caveman", 31, 12, 9, 0xaa02415b6d144538ULL},
    {"caveman", 200, 40, 64, 0x60a9c8bb96618922ULL},  // cap above |S| = 11
    {"caveman", 97, 30, kNoCap, 0xa2de249fea328e5bULL},
    {"grid", 17, 8, 3, 0x0ece81364029c14bULL},
    {"grid", 3, 3, 2, 0x657cef318bb52ed5ULL},
    {"grid", 1, 0, 4, 0x9577f1642e97a550ULL},  // depth 0: sources only
    {"rmat", 9, 3, 6, 0x1e0eef53154f107dULL},
    {"rmat", 1, 4, 2, 0xf0c65c1292ac7b0cULL},
    {"rmat", 64, 5, 40, 0xb3a83f46769a6974ULL},  // cap above |S| = 32
};

TEST(SourceDetection, PinnedDigests) {
  for (const DetectPin& p : kDetectPins) {
    const Graph g = gen_family(p.family, 2048, 7);
    const std::vector<Vertex> sources = every_nth(g.num_vertices(), p.every);
    const std::uint64_t got = detection_digest(
        detect_sources(g, sources, p.depth, p.cap, keep_all(g)));
    EXPECT_EQ(got, p.digest) << p.name() << ": got 0x" << std::hex << got;
    // Duplicated, unsorted sources are the same request.
    std::vector<Vertex> noisy(sources.rbegin(), sources.rend());
    noisy.insert(noisy.end(), sources.begin(), sources.end());
    EXPECT_EQ(detection_digest(
                  detect_sources(g, noisy, p.depth, p.cap, keep_all(g))),
              got)
        << p.name() << " with duplicate sources";
  }
}

// A keep set stores exactly the keep-all run's list at each kept vertex
// and refuses a read anywhere else: the sources, every 7th vertex and no
// vertex, on each pin's graph.
TEST(SourceDetection, KeptListsEqualKeepAll) {
  for (const DetectPin& p : kDetectPins) {
    const Graph g = gen_family(p.family, 2048, 7);
    const Vertex n = g.num_vertices();
    const std::vector<Vertex> sources = every_nth(n, p.every);
    const SourceDetection all =
        detect_sources(g, sources, p.depth, p.cap, keep_all(g));
    std::vector<Vertex> every7;
    for (Vertex v = 0; v < n; v += 7) every7.push_back(v);
    for (const std::vector<Vertex>& keep :
         {sources, every7, std::vector<Vertex>{}}) {
      const KeepSet kept_set(n, keep);
      const SourceDetection part =
          detect_sources(g, sources, p.depth, p.cap, kept_set);
      std::int64_t kept = 0;
      for (Vertex v = 0; v < n; ++v) {
        if (!kept_set.contains(v)) {
          EXPECT_THROW(part.at(v), std::logic_error) << p.name() << " v=" << v;
          continue;
        }
        ++kept;
        EXPECT_TRUE(std::ranges::equal(part.at(v), all.at(v)))
            << p.name() << " |keep|=" << keep.size() << " v=" << v;
      }
      EXPECT_EQ(kept, static_cast<std::int64_t>(keep.size())) << p.name();
    }
  }
}

TEST(SourceDetection, ReadOutsideKeepSetThrows) {
  const Graph g = gen_path(8);
  const std::vector<Vertex> sources = {0, 7};
  const SourceDetection det = detect_sources(g, sources, 10, 2, KeepSet(8, sources));
  EXPECT_EQ(det.distance_to(7, 0), 7);
  // Vertex 3 heard both sources, but its list was not stored: reading it
  // as empty would call it unpopular.
  EXPECT_THROW(det.at(3), std::logic_error);
  EXPECT_THROW(det.distance_to(3, 0), std::logic_error);
  EXPECT_THROW(det.path_to(7, 0), std::logic_error);  // 6 is on the chain
  EXPECT_THROW(det.at(8), std::logic_error);
  try {
    det.at(3);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("vertex 3"), std::string::npos) << e.what();
  }
}

TEST(SourceDetection, BadKeepSetThrows) {
  const Graph g = gen_path(8);
  EXPECT_THROW(KeepSet(8, std::vector<Vertex>{8}), std::out_of_range);
  EXPECT_THROW(KeepSet(8, std::vector<Vertex>{0, -1}), std::out_of_range);
  try {
    KeepSet(8, std::vector<Vertex>{2, 12});
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("12"), std::string::npos) << e.what();
  }
  // A keep set over another vertex count is a caller error.
  EXPECT_THROW(detect_sources(g, std::vector<Vertex>{0}, 3, 2, KeepSet::all(7)),
               std::invalid_argument);
  // Duplicates are one vertex; all() holds exactly [0, n).
  EXPECT_FALSE(KeepSet(8, std::vector<Vertex>{3, 3}).full());
  EXPECT_TRUE(KeepSet(8, std::vector<Vertex>{0, 1, 2, 3, 4, 5, 6, 7, 7}).full());
  const KeepSet all = KeepSet::all(70);
  EXPECT_TRUE(all.full());
  EXPECT_TRUE(all.contains(69));
  EXPECT_FALSE(all.contains(70));
  EXPECT_FALSE(all.contains(-1));
}

// The predecessor rule the centralized spanner's path_to depends on: a hit
// (s, d) at v with d > 0 names the smallest-id neighbour of v that holds s
// at distance d - 1; a hit at distance 0 is v itself, with no predecessor.
TEST(SourceDetection, PredIsSmallestNeighbourOneCloser) {
  for (const char* family : {"er", "caveman", "grid", "rmat"}) {
    const Graph g = gen_family(family, 1024, 3);
    const SourceDetection det =
        detect_sources(g, every_nth(g.num_vertices(), 5), 6, 4, keep_all(g));
    std::int64_t checked = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      for (const SourceHit& h : det.at(v)) {
        if (h.dist == 0) {
          EXPECT_EQ(h.source, v);
          EXPECT_EQ(h.pred, -1);
          continue;
        }
        Vertex want = -1;
        for (const Vertex u : g.neighbors(v)) {  // ascending
          if (det.distance_to(u, h.source) == h.dist - 1) {
            want = u;
            break;
          }
        }
        EXPECT_EQ(h.pred, want) << family << " vertex " << v << " source "
                                << h.source << " dist " << h.dist;
        ++checked;
      }
    }
    EXPECT_GT(checked, g.num_vertices()) << family;
  }
}

}  // namespace
}  // namespace usne
