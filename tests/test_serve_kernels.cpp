// The serving kernels and their serve-layer integration: the flat-frontier
// Dial (path/sssp_kernel.hpp) must be bit-identical to Dijkstra on every
// input, the structural kernel (serve/forest_core.hpp) bit-identical to
// Dial on every H shape the engine may serve, and the per-thread source
// memo must change costs, never results or the uncached-engine contract.

#include <gtest/gtest.h>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "graph/stream_gen.hpp"
#include "graph/weighted_graph.hpp"
#include "path/dijkstra.hpp"
#include "path/sssp_kernel.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

WeightedGraph random_weighted(Vertex n, std::int64_t m, Dist max_w,
                              std::uint64_t seed) {
  Rng rng(seed);
  WeightedGraph h(n);
  while (h.num_edges() < m) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    h.add_edge(u, v, rng.between(1, max_w));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Kernel layer

class KernelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelSweep, DialMatchesDijkstra) {
  const std::uint64_t seed = GetParam();
  // Mixed weight scales: from unit weights (a 2-slot ring) up to weights
  // of 2500, whose ring of up to 2501 slots wraps within a query.
  for (const Dist max_w : {Dist{1}, Dist{7}, Dist{40}, Dist{2500}}) {
    const WeightedGraph h = random_weighted(150, 450, max_w, seed);
    const auto csr = h.csr();
    const Dist w = max_edge_weight(csr);
    SsspScratch scratch;  // one scratch reused across every query below
    for (Vertex s = 0; s < 150; s += 37) {
      EXPECT_EQ(dial_sssp_csr(csr, s, w, scratch), dijkstra(h, s))
          << "seed " << seed << " max_w " << max_w << " s " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(SsspKernelTest, DisconnectedAndTrivialGraphs) {
  WeightedGraph h(5);
  h.add_edge(0, 1, 3);
  h.add_edge(1, 2, 2);  // 3 and 4 isolated
  const auto csr = h.csr();
  SsspScratch scratch;
  const Dist w = max_edge_weight(csr);
  for (const Vertex s : {Vertex{0}, Vertex{3}}) {
    EXPECT_EQ(dial_sssp_csr(csr, s, w, scratch), dijkstra(h, s));
  }

  const WeightedGraph single(1);
  const auto single_csr = single.csr();
  EXPECT_EQ(dial_sssp_csr(single_csr, 0, 0, scratch),
            std::vector<Dist>{0});
}

TEST(SsspKernelTest, MatchesDijkstraOnBuiltEmulator) {
  const Graph g = gen_connected_gnm(300, 900, 3);
  BuildSpec spec;
  spec.algorithm = "emulator_centralized";
  spec.params = {4, 0.25, 0.45, false};
  spec.exec.keep_audit_data = false;
  const BuildOutput built = build(g, spec);
  const auto csr = built.h().csr();
  const Dist w = max_edge_weight(csr);
  SsspScratch scratch;
  for (Vertex s = 0; s < 300; s += 59) {
    EXPECT_EQ(dial_sssp_csr(csr, s, w, scratch), dijkstra(built.h(), s))
        << "s " << s;
  }
}

TEST(SsspKernelTest, ScratchReportsResidentBytes) {
  const WeightedGraph h = random_weighted(64, 200, 9, 3);
  SsspScratch scratch;
  EXPECT_EQ(scratch.resident_bytes(), 0);
  const auto csr = h.csr();
  dial_sssp_csr(csr, 0, max_edge_weight(csr), scratch);
  EXPECT_GT(scratch.resident_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Graph layer: the packed CSR view and the bulk factory.

TEST(CsrViewTest, MatchesAdjacency) {
  const WeightedGraph h = random_weighted(60, 180, 6, 11);
  const auto csr = h.csr();
  ASSERT_EQ(csr.n, h.num_vertices());
  EXPECT_EQ(csr.num_arcs(), 2 * h.num_edges());
  for (Vertex v = 0; v < csr.n; ++v) {
    const auto row = csr.row(v);
    const auto adj = h.adjacency(v);
    ASSERT_EQ(row.size(), adj.size()) << "v " << v;
    EXPECT_EQ(csr.degree(v), static_cast<std::int64_t>(adj.size()));
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].to, adj[i].to);
      EXPECT_EQ(row[i].w, adj[i].w);
    }
  }
}

TEST(FromEdgesTest, BulkFactoryMatchesIncrementalConstruction) {
  WeightedGraph incremental(6);
  incremental.add_edge(0, 1, 3);
  incremental.add_edge(1, 2, 1);
  incremental.add_edge(0, 5, 7);
  incremental.add_edge(2, 4, 2);
  const WeightedGraph bulk = WeightedGraph::from_edges(
      6, {{0, 1, 3}, {0, 5, 7}, {1, 2, 1}, {2, 4, 2}});
  EXPECT_EQ(bulk.num_edges(), incremental.num_edges());
  // The lazy per-edge index builds on first edge_weight call.
  EXPECT_EQ(bulk.edge_weight(1, 0), 3);
  EXPECT_EQ(bulk.edge_weight(5, 0), 7);
  EXPECT_EQ(bulk.edge_weight(0, 4), kInfDist);
  for (Vertex s = 0; s < 6; ++s) {
    EXPECT_EQ(dijkstra(bulk, s), dijkstra(incremental, s));
  }
}

TEST(FromEdgesTest, LazyIndexSupportsLaterMutation) {
  WeightedGraph h = WeightedGraph::from_edges(4, {{0, 1, 5}, {1, 2, 5}});
  EXPECT_TRUE(h.add_edge(0, 1, 2));  // min-weight dedup needs the index
  EXPECT_EQ(h.edge_weight(0, 1), 2);
  EXPECT_EQ(h.num_edges(), 2);
}

TEST(FromEdgesTest, RejectsMalformedLists) {
  EXPECT_THROW(WeightedGraph::from_edges(3, {{1, 0, 2}}),
               std::invalid_argument);  // u >= v
  EXPECT_THROW(WeightedGraph::from_edges(3, {{0, 3, 2}}),
               std::invalid_argument);  // out of range
  EXPECT_THROW(WeightedGraph::from_edges(3, {{0, 1, 0}}),
               std::invalid_argument);  // non-positive weight
  EXPECT_THROW(WeightedGraph::from_edges(3, {{0, 1, 2}, {0, 1, 3}}),
               std::invalid_argument);  // duplicate
}

TEST(FromEdgesTest, UnitWeightsServesG) {
  const Graph g = gen_family("er", 64, 5);
  const WeightedGraph h = WeightedGraph::unit_weights(g);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (const WeightedEdge& e : h.edges()) EXPECT_EQ(e.w, 1);
}

// ---------------------------------------------------------------------------
// Structural kernel vs Dial: the engine's point answers from >= 8 sources to
// every target, on each H shape, with the kernel the engine must pick.

WeightedGraph built_h(const std::string& algorithm, const Graph& g, int kappa,
                      double rho) {
  BuildSpec spec;
  spec.algorithm = algorithm;
  spec.params = {kappa, 0.25, rho, false};
  spec.exec.keep_audit_data = false;
  spec.exec.num_threads = 2;
  return build(g, spec).h();
}

/// Compares the engine with dial_sssp_csr from 8 sources spread over H
/// (both query directions) and returns the engine's kernel report.
serve::KernelInfo expect_matches_dial(const WeightedGraph& h,
                                      bool structural) {
  const serve::QueryEngine engine(h, 1.0, 0);
  EXPECT_EQ(engine.kernel().structural, structural) << engine.kernel().json();
  const auto csr = h.csr();
  const Dist w = max_edge_weight(csr);
  SsspScratch scratch;
  const Vertex n = h.num_vertices();
  for (int i = 0; i < 8; ++i) {
    const auto s = static_cast<Vertex>(static_cast<std::int64_t>(n - 1) * i / 7);
    const std::vector<Dist> dist = dial_sssp_csr(csr, s, w, scratch);
    std::int64_t mismatches = 0;
    for (Vertex v = 0; v < n; ++v) {
      const Dist want = dist[static_cast<std::size_t>(v)];
      if (engine.query(s, v) != want || engine.query(v, s) != want) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "source " << s << ", " << engine.kernel().json();
  }
  const serve::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.structural, structural ? 16 * std::int64_t{n} : 0);
  if (structural) {
    EXPECT_EQ(stats.sssp_runs, 0);
  }
  return engine.kernel();
}

TEST(StructuralKernelTest, PerfbenchWireGroupedH) {
  const Vertex n = Vertex{1} << 17;
  const Graph g = stream_connected_gnm(n, std::int64_t{4} * n, 1);
  const serve::KernelInfo k =
      expect_matches_dial(built_h("emulator_fast", g, 8, 0.3), true);
  EXPECT_GT(k.max_depth, 0);
}

TEST(StructuralKernelTest, PerfbenchCongestBuildH) {
  const Graph g = gen_family("er", Vertex{1} << 14, 1);
  expect_matches_dial(built_h("emulator_congest", g, 4, 0.45), true);
}

TEST(StructuralKernelTest, CavemanHangsTreesOnANonemptyCore) {
  const Graph g = gen_family("caveman", 4096, 2024);
  const serve::KernelInfo k =
      expect_matches_dial(built_h("emulator_fast", g, 8, 0.3), true);
  EXPECT_GT(k.core, 0);
  EXPECT_EQ(k.table_bytes, std::int64_t{k.core} * k.core *
                               static_cast<std::int64_t>(sizeof(Dist)));
}

TEST(StructuralKernelTest, DisconnectedRmat) {
  const Graph g = gen_family("rmat", 4096, 1);
  expect_matches_dial(built_h("emulator_fast", g, 8, 0.3), true);
}

TEST(StructuralKernelTest, SpannerWithDeepTrees) {
  const Vertex n = Vertex{1} << 14;
  const Graph g = stream_connected_gnm(n, std::int64_t{4} * n, 1);
  const serve::KernelInfo k =
      expect_matches_dial(built_h("spanner", g, 8, 0.3), true);
  EXPECT_GT(k.core, 0);
  EXPECT_GE(k.max_depth, 5);
}

TEST(StructuralKernelTest, PathAndRandomTree) {
  // A path is one heavy chain; a random recursive tree has many light
  // edges, so its LCA climbs several chains.
  const Vertex n = 3000;
  Rng rng(7);
  WeightedGraph path(n);
  WeightedGraph tree(n);
  for (Vertex v = 1; v < n; ++v) {
    path.add_edge(v - 1, v, rng.between(1, 9));
    tree.add_edge(static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(v))),
                  v, rng.between(1, 9));
  }
  // Peeling meets in the middle of the path, which becomes the root.
  EXPECT_EQ(expect_matches_dial(path, true).max_depth, n / 2);
  EXPECT_EQ(expect_matches_dial(tree, true).core, 0);
}

TEST(StructuralKernelTest, EdgelessH) {
  const serve::KernelInfo k = expect_matches_dial(WeightedGraph(50), true);
  EXPECT_EQ(k.core, 0);
  EXPECT_EQ(k.max_depth, 0);
}

TEST(StructuralKernelTest, GridWhereHIsGFallsBackToDial) {
  const Graph g = gen_family("grid", 4096, 1);
  const WeightedGraph h = built_h("emulator_fast", g, 4, 0.45);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  const serve::KernelInfo k = expect_matches_dial(h, false);
  EXPECT_EQ(k.core, g.num_vertices());
  EXPECT_EQ(k.json(), "{\"core\": 4096, \"name\": \"dial\"}");
}

// ---------------------------------------------------------------------------
// Serve layer: the cache and the source memo must be invisible in every
// answer, at every thread count.

std::vector<serve::Query> workload_of(serve::WorkloadKind kind, Vertex n) {
  serve::WorkloadSpec spec;
  spec.kind = kind;
  spec.num_queries = 600;
  spec.seed = 42;
  return serve::generate_workload(n, spec);
}

TEST(ServeKernelTest, EngineAnswersIdenticalAcrossCachingAndThreads) {
  const Vertex n = 256;
  const WeightedGraph h = random_weighted(n, 1024, 9, 13);

  for (const auto kind :
       {serve::WorkloadKind::kZipf, serve::WorkloadKind::kUniform,
        serve::WorkloadKind::kGrouped, serve::WorkloadKind::kPointVsAll}) {
    const std::vector<serve::Query> queries = workload_of(kind, n);
    std::vector<Dist> reference;
    for (const double cache_mb : {0.0, 4.0}) {
      for (const int threads : {1, 2, 8}) {
        serve::ServeOptions options;
        options.cache_mb = cache_mb;
        const serve::QueryEngine engine(h, 1.0, 0, options);
        const serve::BatchResult batch = engine.serve(queries, threads);
        if (reference.empty()) {
          reference = batch.answers;
        } else {
          EXPECT_EQ(batch.answers, reference)
              << "cache_mb=" << cache_mb << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ServeKernelTest, SourceMemoShortCircuitsRepeatedSources) {
  const Vertex n = 64;
  const WeightedGraph h = random_weighted(n, 256, 5, 17);
  serve::ServeOptions options;
  options.cache_entries_per_shard = 4;
  const serve::QueryEngine engine(h, 1.0, 0, options);
  ASSERT_FALSE(engine.kernel().structural);  // point queries take the cache path

  // A grouped run: one SSSP for the first query, memo hits for the rest.
  for (Vertex v = 1; v < 20; ++v) engine.query(7, v);
  serve::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.sssp_runs, 1);
  EXPECT_EQ(stats.hits, 18);

  // Same source via query_all: still the one computation.
  const serve::SsspResult all = engine.query_all(7);
  EXPECT_EQ(engine.cache_stats().sssp_runs, 1);
  EXPECT_EQ((*all)[13], engine.query(7, 13));

  // Switching sources invalidates the memo but lands in the shared cache.
  engine.query(9, 3);
  engine.query(7, 3);
  EXPECT_EQ(engine.cache_stats().sssp_runs, 2);
}

TEST(ServeKernelTest, MemoNeverActivatesWithoutCache) {
  const WeightedGraph h = random_weighted(48, 160, 4, 19);
  serve::ServeOptions options;
  options.cache_mb = 0;  // uncached engines are strict recompute references
  const serve::QueryEngine engine(h, 1.0, 0, options);
  ASSERT_FALSE(engine.kernel().structural);
  engine.query(3, 5);
  engine.query(3, 6);
  engine.query(3, 7);
  EXPECT_EQ(engine.cache_stats().sssp_runs, 3);
}

}  // namespace
}  // namespace usne
