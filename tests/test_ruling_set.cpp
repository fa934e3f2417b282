// Property tests for the deterministic digit-sweep ruling sets: separation
// and covering guarantees on varied graphs (both the CONGEST and the
// centralized implementations), exact agreement between the two, and
// pinned digests of the centralized members.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>

#include "congest/network.hpp"
#include "congest/ruling_set.hpp"
#include "core/ruling_central.hpp"
#include "graph/generators.hpp"
#include "path/bfs.hpp"
#include "serve/query_engine.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

struct RulingCase {
  std::string family;
  Vertex n;
  Dist q;
  std::int64_t base;
  std::uint64_t seed;
};

class RulingSetProperty : public ::testing::TestWithParam<RulingCase> {};

/// Checks separation > q+1 and covering <= levels*(q+1) against BFS truth.
void check_properties(const Graph& g, const std::vector<Vertex>& w,
                      const std::vector<Vertex>& members, Dist q,
                      Dist covering) {
  // Every member is in W.
  for (const Vertex m : members) {
    EXPECT_TRUE(std::binary_search(w.begin(), w.end(), m));
  }
  // Separation: pairwise distance > q + 1.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto dist = bfs_distances(g, members[i]);
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      EXPECT_GT(dist[static_cast<std::size_t>(members[j])], q + 1)
          << members[i] << " vs " << members[j];
    }
  }
  // Covering: every W vertex within `covering` of some member.
  if (!members.empty()) {
    const auto r = multi_source_bfs(g, members, covering);
    for (const Vertex v : w) {
      EXPECT_LE(r.dist[static_cast<std::size_t>(v)], covering) << "vertex " << v;
    }
  } else {
    EXPECT_TRUE(w.empty());
  }
}

TEST_P(RulingSetProperty, CentralizedSatisfiesGuarantees) {
  const RulingCase& c = GetParam();
  const Graph g = gen_family(c.family, c.n, c.seed);
  Rng rng(c.seed ^ 0x1234);
  std::vector<Vertex> w;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (rng.chance(0.3)) w.push_back(v);
  }
  const CentralRulingSet rs = ruling_set_central(g, w, c.q, c.base);
  check_properties(g, w, rs.members, c.q, rs.covering);
}

TEST_P(RulingSetProperty, CongestMatchesCentralized) {
  const RulingCase& c = GetParam();
  const Graph g = gen_family(c.family, c.n, c.seed);
  Rng rng(c.seed ^ 0x1234);
  std::vector<Vertex> w;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (rng.chance(0.3)) w.push_back(v);
  }
  const CentralRulingSet central = ruling_set_central(g, w, c.q, c.base);
  congest::Network net(g);
  const congest::RulingSet distributed =
      congest::compute_ruling_set(net, w, c.q, c.base);
  EXPECT_EQ(distributed.members, central.members);
  EXPECT_EQ(distributed.covering, central.covering);
  EXPECT_GT(distributed.rounds_used, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RulingSetProperty,
    ::testing::Values(
        RulingCase{"er", 100, 2, 4, 1}, RulingCase{"er", 150, 4, 8, 2},
        RulingCase{"torus", 100, 3, 4, 3}, RulingCase{"torus", 144, 6, 16, 4},
        RulingCase{"ba", 120, 2, 8, 5}, RulingCase{"star", 60, 2, 4, 6},
        RulingCase{"tree", 127, 5, 4, 7}, RulingCase{"caveman", 96, 3, 8, 8},
        RulingCase{"path", 80, 4, 4, 9}, RulingCase{"ws", 128, 3, 16, 10}),
    [](const ::testing::TestParamInfo<RulingCase>& info) {
      return info.param.family + "_n" + std::to_string(info.param.n) + "_q" +
             std::to_string(info.param.q) + "_b" +
             std::to_string(info.param.base);
    });

TEST(RulingSet, EmptyAndSingleton) {
  const Graph g = gen_cycle(10);
  EXPECT_TRUE(ruling_set_central(g, {}, 3, 4).members.empty());
  const auto single = ruling_set_central(g, {7}, 3, 4);
  ASSERT_EQ(single.members.size(), 1u);
  EXPECT_EQ(single.members[0], 7);
}

TEST(RulingSet, AllVerticesOfClique) {
  // In a clique everything is within distance 1; exactly one survivor.
  const Graph g = gen_complete(16);
  std::vector<Vertex> w;
  for (Vertex v = 0; v < 16; ++v) w.push_back(v);
  const auto rs = ruling_set_central(g, w, 1, 4);
  EXPECT_EQ(rs.members.size(), 1u);
}

TEST(RulingSet, WellSeparatedSetSurvivesEntirely) {
  // On a long path, picking every (q+2)-th vertex leaves all candidates
  // mutually further than q+1 apart; nobody should be eliminated.
  const Graph g = gen_path(100);
  const Dist q = 3;
  std::vector<Vertex> w;
  for (Vertex v = 0; v < 100; v += static_cast<Vertex>(q + 2)) w.push_back(v);
  const auto rs = ruling_set_central(g, w, q, 4);
  EXPECT_EQ(rs.members, w);
}

TEST(RulingSet, DuplicatesIgnored) {
  const Graph g = gen_cycle(20);
  const auto a = ruling_set_central(g, {3, 3, 9, 9, 9}, 2, 4);
  const auto b = ruling_set_central(g, {3, 9}, 2, 4);
  EXPECT_EQ(a.members, b.members);
}

TEST(RulingSet, OutOfRangeCandidateThrows) {
  const Graph g = gen_cycle(20);
  EXPECT_THROW(ruling_set_central(g, {3, 20}, 2, 4), std::out_of_range);
  EXPECT_THROW(ruling_set_central(g, {-1, 3}, 2, 4), std::out_of_range);
  // A lone candidate is returned without any flood, but is still checked.
  EXPECT_THROW(ruling_set_central(g, {25}, 2, 4), std::out_of_range);
}

struct RulingPin {
  const char* family;
  Vertex every;  // W = {1, 1 + every, 1 + 2 * every, ...}
  Dist q;
  std::int64_t base;
  std::uint64_t digest;
};

// FNV-1a digests of the members (plus separation and covering) on n = 2048
// graphs (seed 7), recorded with the flood-per-step implementation that
// the incremental capped-distance one replaced.
TEST(RulingSet, PinnedDigests) {
  const RulingPin pins[] = {
      {"er", 3, 2, 4, 0x2ee1c51bbade2111ULL},
      {"er", 1, 4, 8, 0x702dee133e56e190ULL},
      {"er", 1, 0, 2, 0xe58ef783b91ef25cULL},
      {"caveman", 2, 3, 16, 0xbb4a50d288fe9320ULL},
      {"caveman", 1, 8, 35, 0x1583f00d6decd7e5ULL},
      {"grid", 5, 6, 4, 0xa76e684f44af2f32ULL},
      {"grid", 1, 2, 4096, 0x921a1e839f65dbd6ULL},  // base >= n: one level
      {"rmat", 3, 2, 35, 0x4ca31ba6109b151aULL},
      {"rmat", 1, 4, 2, 0x425c5ad6b57a56f1ULL},
  };
  for (const RulingPin& p : pins) {
    const Graph g = gen_family(p.family, 2048, 7);
    std::vector<Vertex> w;
    for (Vertex v = 1; v < g.num_vertices(); v += p.every) w.push_back(v);
    const CentralRulingSet rs = ruling_set_central(g, w, p.q, p.base);
    std::uint64_t h = serve::kChecksumSeed;
    h = serve::checksum_accumulate(h, static_cast<std::int64_t>(rs.members.size()));
    for (const Vertex m : rs.members) h = serve::checksum_accumulate(h, m);
    h = serve::checksum_accumulate(h, rs.separation);
    h = serve::checksum_accumulate(h, rs.covering);
    EXPECT_EQ(h, p.digest) << p.family << " every=" << p.every << " q=" << p.q
                           << " base=" << p.base << ": got 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace usne
