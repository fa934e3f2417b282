// Tests for the query-serving subsystem (src/serve/): workload generation,
// the sharded LRU SSSP cache, batch serving determinism, and the stretch
// guarantee of served answers. An emulator's H is a forest on a tiny core,
// so its engine answers point queries structurally; tests that count cache
// traffic for point queries serve a unit-weight G instead (dial_engine),
// whose core is too large for the structural table.
//
// Built with -DUSNE_SAN=thread this binary is part of the ThreadSanitizer
// gate (ctest label "tsan"): the hammer tests drive the cache from many
// threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "path/dijkstra.hpp"
#include "serve/query_engine.hpp"
#include "serve/stats.hpp"
#include "serve/workload.hpp"
#include "util/invariant.hpp"

namespace usne {
namespace {

using serve::BatchResult;
using serve::Query;
using serve::QueryEngine;
using serve::ServeOptions;
using serve::WorkloadKind;
using serve::WorkloadSpec;

BuildOutput build_emulator(const Graph& g, int kappa = 6) {
  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params = {kappa, 0.25, 0.3, false};
  spec.exec.keep_audit_data = false;
  return build(g, spec);
}

/// H = G with unit weights on a connected G(n, 4n): its 2-core is nearly
/// all of G, so point queries take the Dial + cache path.
WeightedGraph dial_h(Vertex n, std::uint64_t seed) {
  return WeightedGraph::unit_weights(
      gen_connected_gnm(n, 4 * static_cast<std::int64_t>(n), seed));
}

// --- workload generator -----------------------------------------------------

TEST(Workload, DeterministicForFixedSeed) {
  WorkloadSpec spec;
  spec.num_queries = 500;
  spec.seed = 9;
  for (const WorkloadKind kind :
       {WorkloadKind::kUniform, WorkloadKind::kZipf, WorkloadKind::kGrouped,
        WorkloadKind::kPointVsAll}) {
    spec.kind = kind;
    const auto a = serve::generate_workload(300, spec);
    const auto b = serve::generate_workload(300, spec);
    EXPECT_EQ(a, b) << serve::workload_kind_name(kind);
    EXPECT_EQ(a.size(), 500u);
    for (const Query& q : a) {
      EXPECT_GE(q.u, 0);
      EXPECT_LT(q.u, 300);
      EXPECT_GE(q.v, 0);
      EXPECT_LT(q.v, 300);
    }
    spec.seed = 10;
    const auto c = serve::generate_workload(300, spec);
    EXPECT_NE(a, c) << "seed must matter for "
                    << serve::workload_kind_name(kind);
    spec.seed = 9;
  }
}

TEST(Workload, ZipfConcentratesSources) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kZipf;
  spec.num_queries = 4000;
  spec.seed = 3;
  spec.zipf_s = 1.2;
  const auto queries = serve::generate_workload(1000, spec);
  std::unordered_map<Vertex, int> frequency;
  for (const Query& q : queries) ++frequency[q.u];
  int hottest = 0;
  for (const auto& [source, count] : frequency) {
    hottest = std::max(hottest, count);
  }
  // Uniform sources would put ~4 queries on each of 1000 sources; a zipf
  // head must be far above that.
  EXPECT_GT(hottest, 100);
}

TEST(Workload, GroupedEmitsRunsOfOneSource) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kGrouped;
  spec.num_queries = 256;
  spec.group_size = 32;
  spec.seed = 5;
  const auto queries = serve::generate_workload(500, spec);
  ASSERT_EQ(queries.size(), 256u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(queries[i].u, queries[i - i % 32].u) << "index " << i;
  }
}

TEST(Workload, PointVsAllMixesInFullSsspQueries) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kPointVsAll;
  spec.num_queries = 2000;
  spec.all_fraction = 0.1;
  spec.seed = 7;
  const auto queries = serve::generate_workload(400, spec);
  const auto all_count = std::count_if(queries.begin(), queries.end(),
                                       [](const Query& q) { return q.all; });
  EXPECT_GT(all_count, 100);
  EXPECT_LT(all_count, 400);
}

TEST(Workload, ParseAndNameRoundTrip) {
  for (const char* name : {"uniform", "zipf", "grouped", "point_vs_all"}) {
    EXPECT_STREQ(serve::workload_kind_name(serve::parse_workload_kind(name)),
                 name);
  }
  EXPECT_THROW(serve::parse_workload_kind("bogus"), std::invalid_argument);
}

TEST(Workload, RejectsMalformedSpecs) {
  WorkloadSpec spec;
  EXPECT_THROW(serve::generate_workload(0, spec), std::invalid_argument);
  spec.num_queries = -1;
  EXPECT_THROW(serve::generate_workload(10, spec), std::invalid_argument);
  spec.num_queries = 10;
  spec.kind = WorkloadKind::kZipf;
  spec.zipf_s = 0;
  EXPECT_THROW(serve::generate_workload(10, spec), std::invalid_argument);
  spec.kind = WorkloadKind::kGrouped;
  spec.group_size = 0;
  EXPECT_THROW(serve::generate_workload(10, spec), std::invalid_argument);
  spec.kind = WorkloadKind::kPointVsAll;
  spec.all_fraction = 1.5;
  EXPECT_THROW(serve::generate_workload(10, spec), std::invalid_argument);
}

// --- query engine: answers --------------------------------------------------

TEST(QueryEngine, AnswersMatchDirectSssp) {
  const Graph g = gen_connected_gnm(300, 1200, 17);
  const BuildOutput built = build_emulator(g);
  const QueryEngine engine(built);
  for (const Vertex s : {0, 5, 123, 299}) {
    const auto direct = dijkstra(built.h(), s);
    const auto cached = engine.query_all(s);
    EXPECT_EQ(*cached, direct);
    for (Vertex v = 0; v < 300; v += 37) {
      EXPECT_EQ(engine.query(s, v), direct[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(QueryEngine, CachedAndUncachedAnswersIdentical) {
  const WeightedGraph h = dial_h(400, 23);
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kZipf;
  spec.num_queries = 3000;
  spec.seed = 4;
  const auto queries = serve::generate_workload(400, spec);

  ServeOptions cached_options;
  ServeOptions uncached_options;
  uncached_options.cache_mb = 0;
  const QueryEngine cached(h, 1.0, 0, cached_options);
  const QueryEngine uncached(h, 1.0, 0, uncached_options);
  ASSERT_FALSE(cached.kernel().structural);
  const BatchResult a = cached.serve(queries, 2);
  const BatchResult b = uncached.serve(queries, 2);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.checksum, b.checksum);
  // The uncached engine recomputes every query; the cached one pays one
  // SSSP per distinct source.
  EXPECT_GT(b.cache.sssp_runs, a.cache.sssp_runs);
  EXPECT_EQ(a.cache.hits + a.cache.misses,
            static_cast<std::int64_t>(queries.size()));
}

TEST(QueryEngine, SymmetricPeekServesFromEitherEndpoint) {
  const QueryEngine engine(dial_h(144, 3), 1.0, 0);
  ASSERT_FALSE(engine.kernel().structural);
  const Dist direct = engine.query(5, 60);   // SSSP from 5
  const auto before = engine.cache_stats();
  const Dist via_cache = engine.query(60, 5);  // must reuse 5's vector
  const auto after = engine.cache_stats();
  EXPECT_EQ(direct, via_cache);
  EXPECT_EQ(after.sssp_runs, before.sssp_runs);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(QueryEngine, AllQueriesFoldChecksumIntoAnswerSlot) {
  const Graph g = gen_connected_gnm(200, 800, 31);
  const BuildOutput built = build_emulator(g);
  const QueryEngine engine(built);
  const std::vector<Query> queries = {{7, 0, true}, {7, 11, false}};
  const BatchResult batch = engine.serve(queries, 1);
  EXPECT_EQ(batch.all_queries, 1);
  EXPECT_EQ(batch.point_queries, 1);
  EXPECT_EQ(batch.answers[0], serve::checksum_fold(*engine.query_all(7)));
  EXPECT_EQ(batch.answers[1], engine.query(7, 11));
}

TEST(QueryEngine, StructuralPointQueriesSkipTheCache) {
  inv::ScopedAuditsEnabled audits(true);  // the serving-ledger audit runs
  const Graph g = gen_connected_gnm(300, 1200, 61);
  const QueryEngine engine(build_emulator(g));
  ASSERT_TRUE(engine.kernel().structural);
  EXPECT_STREQ(engine.kernel().name(), "structural");
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kPointVsAll;
  spec.num_queries = 400;
  spec.seed = 3;
  const auto queries = serve::generate_workload(300, spec);
  const BatchResult batch = engine.serve(queries, 2);
  EXPECT_EQ(batch.cache.structural, batch.point_queries);
  EXPECT_EQ(batch.cache.hits + batch.cache.misses, batch.all_queries);
  EXPECT_NE(batch.stats_json().find("\"structural\": " +
                                    std::to_string(batch.point_queries)),
            std::string::npos);
  const serve::CacheStats d1 = engine.cache_stats_delta();
  EXPECT_EQ(d1.structural, batch.point_queries);

  // query() counts itself; single-source queries keep Dial + cache.
  const Dist d = engine.query(4, 250);
  EXPECT_EQ(d, (*engine.query_all(4))[250]);
  const serve::CacheStats d2 = engine.cache_stats_delta();
  EXPECT_EQ(d2.structural, 1);
  EXPECT_EQ(d2.hits + d2.misses, 1);
  EXPECT_EQ(engine.cache_stats().structural, batch.point_queries + 1);
}

TEST(QueryEngine, RejectsOutOfRangeVerticesBeforeAnyWork) {
  const Graph g = gen_connected_gnm(300, 1200, 67);
  const QueryEngine structural(build_emulator(g));
  const QueryEngine dial(dial_h(300, 67), 1.0, 0);
  ASSERT_TRUE(structural.kernel().structural);
  ASSERT_FALSE(dial.kernel().structural);
  const auto names = [](const std::out_of_range& e, Vertex v) {
    return std::string(e.what()).find("vertex " + std::to_string(v) + " ") !=
           std::string::npos;
  };
  for (const QueryEngine* engine : {&structural, &dial}) {
    for (const Vertex bad : {Vertex{300}, Vertex{-1}}) {
      EXPECT_THROW(engine->query(bad, 0), std::out_of_range);
      EXPECT_THROW(engine->query(0, bad), std::out_of_range);
      EXPECT_THROW(engine->query_all(bad), std::out_of_range);
      const std::vector<Query> pair_u = {{0, 1, false}, {bad, 0, false}};
      const std::vector<Query> pair_v = {{0, bad, false}};
      const std::vector<Query> all = {{bad, 0, true}};
      EXPECT_THROW(engine->serve(pair_u), std::out_of_range);
      EXPECT_THROW(engine->serve(pair_v, 2), std::out_of_range);
      EXPECT_THROW(engine->serve(all), std::out_of_range);
      try {
        engine->query(0, bad);
      } catch (const std::out_of_range& e) {
        EXPECT_TRUE(names(e, bad)) << e.what();
      }
    }
    // Nothing was answered, cached, memoized or counted.
    const serve::CacheStats s = engine->cache_stats();
    EXPECT_EQ(s.structural + s.hits + s.misses + s.sssp_runs + s.entries, 0);
    // The v slot of a single-source query is ignored, as documented.
    const std::vector<Query> all_any_v = {{5, -7, true}};
    EXPECT_EQ(engine->serve(all_any_v).all_queries, 1);
  }
}

// --- query engine: LRU cache ------------------------------------------------

TEST(QueryEngine, LruEvictsColdestSource) {
  const Graph g = gen_connected_gnm(200, 800, 11);
  const BuildOutput built = build_emulator(g);
  ServeOptions options;
  options.cache_shards = 1;  // one shard so capacity is exact
  options.cache_entries_per_shard = 2;
  const QueryEngine engine(built, options);

  const auto a0 = *engine.query_all(0);  // cache: {0}
  (void)engine.query_all(1);             // cache: {1, 0}
  (void)engine.query_all(0);             // touch 0 -> {0, 1}
  (void)engine.query_all(2);             // evicts 1 -> {2, 0}
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.sssp_runs, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);

  // 0 survived (it was touched), 1 was evicted and recomputes.
  (void)engine.query_all(0);
  EXPECT_EQ(engine.cache_stats().sssp_runs, 3);
  (void)engine.query_all(1);
  stats = engine.cache_stats();
  EXPECT_EQ(stats.sssp_runs, 4);
  EXPECT_EQ(stats.evictions, 2);

  // Evicted-and-recomputed answers are identical to the first computation.
  EXPECT_EQ(*engine.query_all(0), a0);
}

TEST(QueryEngine, DisabledCacheRecomputesEveryQuery) {
  const Graph g = gen_connected_gnm(150, 600, 13);
  const BuildOutput built = build_emulator(g);
  ServeOptions options;
  options.cache_mb = 0;
  const QueryEngine engine(built, options);
  (void)engine.query_all(3);
  (void)engine.query_all(3);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.sssp_runs, 2);
  EXPECT_EQ(stats.hits, 0);
}

TEST(QueryEngine, EvictedVectorsStayValidForHolders) {
  const Graph g = gen_connected_gnm(150, 600, 19);
  const BuildOutput built = build_emulator(g);
  ServeOptions options;
  options.cache_shards = 1;
  options.cache_entries_per_shard = 1;
  const QueryEngine engine(built, options);
  const serve::SsspResult held = engine.query_all(4);
  const std::vector<Dist> copy = *held;
  (void)engine.query_all(5);  // evicts source 4
  EXPECT_GE(engine.cache_stats().evictions, 1);
  EXPECT_EQ(*held, copy);  // shared ownership keeps the vector alive
}

// --- query engine: determinism & concurrency --------------------------------

TEST(QueryEngine, BatchDeterministicAcrossThreadCounts) {
  const Graph g = gen_connected_gnm(500, 2000, 29);
  const BuildOutput built = build_emulator(g);
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kPointVsAll;
  spec.num_queries = 4000;
  spec.seed = 12;
  const auto queries = serve::generate_workload(500, spec);

  BatchResult reference;
  for (const int threads : {1, 2, 8}) {
    const QueryEngine engine(built);  // fresh engine per thread count
    const BatchResult batch = engine.serve(queries, threads);
    if (threads == 1) {
      reference = batch;
      continue;
    }
    EXPECT_EQ(batch.answers, reference.answers) << "threads=" << threads;
    EXPECT_EQ(batch.checksum, reference.checksum) << "threads=" << threads;
    // (sssp_runs is deliberately not compared here: the symmetric peek
    // makes the set of computed sources order-dependent for point queries —
    // the answers are what the determinism contract covers.)
  }
}

TEST(QueryEngine, SingleSourceSsspCountInvariantAcrossThreads) {
  // All-queries go straight through query_all, so with an ample cache the
  // engine pays exactly one SSSP per distinct source at ANY thread count —
  // concurrent cold requests coalesce instead of duplicating work.
  const Graph g = gen_connected_gnm(400, 1600, 53);
  const BuildOutput built = build_emulator(g);
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kPointVsAll;
  spec.all_fraction = 1.0;  // every query is single-source
  spec.num_queries = 2000;
  spec.seed = 6;
  const auto queries = serve::generate_workload(400, spec);
  std::set<Vertex> distinct;
  for (const Query& q : queries) distinct.insert(q.u);

  for (const int threads : {1, 2, 8}) {
    const QueryEngine engine(built);
    const BatchResult batch = engine.serve(queries, threads);
    EXPECT_EQ(batch.cache.sssp_runs,
              static_cast<std::int64_t>(distinct.size()))
        << "threads=" << threads;
  }
}

TEST(QueryEngine, ConcurrentSameSourceQueriesCoalesce) {
  const Graph g = gen_connected_gnm(400, 1600, 37);
  const BuildOutput built = build_emulator(g);
  const QueryEngine engine(built);
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::vector<std::vector<Dist>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = *engine.query_all(42);
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<std::size_t>(t)], results[0]);
  }
  EXPECT_EQ(engine.cache_stats().sssp_runs, 1);
}

TEST(QueryEngine, HammerMixedQueriesFromManyThreads) {
  const Graph g = gen_connected_gnm(300, 1200, 41);
  const BuildOutput built = build_emulator(g);
  ServeOptions options;
  options.cache_shards = 2;
  options.cache_entries_per_shard = 4;  // tiny: force eviction under load
  const QueryEngine engine(built, options);
  ServeOptions uncached_options;
  uncached_options.cache_mb = 0;
  const QueryEngine reference(built, uncached_options);

  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        const Vertex u = static_cast<Vertex>((t * 131 + i * 7) % 300);
        const Vertex v = static_cast<Vertex>((t * 17 + i * 113) % 300);
        if (engine.query(u, v) != reference.query(u, v)) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// --- stretch of served answers ----------------------------------------------

TEST(ServeStats, GeneratedWorkloadsRespectStretchBounds) {
  const Graph g = gen_connected_gnm(350, 1400, 43);
  const BuildOutput built = build_emulator(g);
  const QueryEngine engine(built);
  ASSERT_TRUE(built.has_guarantee);
  for (const WorkloadKind kind :
       {WorkloadKind::kUniform, WorkloadKind::kZipf, WorkloadKind::kGrouped}) {
    WorkloadSpec spec;
    spec.kind = kind;
    spec.num_queries = 600;
    spec.seed = 21;
    const auto queries = serve::generate_workload(350, spec);
    const serve::StretchSample sample =
        serve::sample_query_stretch(g, engine, queries, 150);
    EXPECT_GT(sample.pairs, 0) << serve::workload_kind_name(kind);
    EXPECT_EQ(sample.violations, 0) << serve::workload_kind_name(kind);
    EXPECT_EQ(sample.underruns, 0) << serve::workload_kind_name(kind);
    EXPECT_TRUE(sample.ok());
  }
}

TEST(ServeStats, DisconnectedPairsStayInfinite) {
  GraphBuilder b(20);
  for (Vertex v = 0; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  for (Vertex v = 10; v + 1 < 20; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();
  const BuildOutput built = build_emulator(g, 4);
  const QueryEngine engine(built);
  EXPECT_EQ(engine.query(0, 19), kInfDist);
  EXPECT_LT(engine.query(0, 9), kInfDist);
  const std::vector<Query> queries = {{0, 19, false}, {0, 9, false}};
  const serve::StretchSample sample =
      serve::sample_query_stretch(g, engine, queries, 10);
  EXPECT_EQ(sample.pairs, 2);
  EXPECT_TRUE(sample.ok());
}

// --- batch report -----------------------------------------------------------

TEST(BatchResult, StatsJsonCarriesChecksumAndCounters) {
  const Graph g = gen_connected_gnm(120, 480, 47);
  const BuildOutput built = build_emulator(g);
  const QueryEngine engine(built);
  WorkloadSpec spec;
  spec.num_queries = 200;
  spec.seed = 2;
  const auto queries = serve::generate_workload(120, spec);
  const BatchResult batch = engine.serve(queries, 2);
  const std::string json = batch.stats_json();
  EXPECT_NE(json.find("\"checksum\": " + std::to_string(batch.checksum)),
            std::string::npos);
  EXPECT_NE(json.find("\"queries\": 200"), std::string::npos);
  EXPECT_NE(json.find("\"sssp_runs\": "), std::string::npos);
}

// --- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, SmallValuesAreExact) {
  serve::LatencyHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(serve::LatencyHistogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(serve::LatencyHistogram::bucket_upper_bound(
                  serve::LatencyHistogram::bucket_index(v)),
              v);
  }
  h.record(7);
  EXPECT_EQ(h.percentile(0.5), 7u);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), 7u);
  EXPECT_EQ(h.max_value(), 7u);
}

TEST(LatencyHistogram, BucketMappingIsMonotoneAndSelfConsistent) {
  int prev = -1;
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{15},
        std::uint64_t{16}, std::uint64_t{17}, std::uint64_t{100},
        std::uint64_t{1000}, std::uint64_t{12345}, std::uint64_t{1} << 31,
        std::uint64_t{1} << 62}) {
    const int b = serve::LatencyHistogram::bucket_index(v);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, serve::LatencyHistogram::kBucketCount);
    // The bucket's upper bound is >= v and within 12.5% of it.
    const std::uint64_t ub = serve::LatencyHistogram::bucket_upper_bound(b);
    EXPECT_GE(ub, v);
    EXPECT_LE(ub - v, v / 8 + 1);
    prev = b;
  }
}

TEST(LatencyHistogram, PercentilesBoundedByResolution) {
  serve::LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000);
  // p50 of 1..1000 is 500; log-bucket resolution is 12.5%.
  EXPECT_GE(h.percentile(0.5), 500u);
  EXPECT_LE(h.percentile(0.5), 563u);
  EXPECT_GE(h.percentile(0.99), 990u);
  EXPECT_LE(h.percentile(0.99), 1000u);  // clamped to max_value
  EXPECT_EQ(h.percentile(1.0), 1000u);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(LatencyHistogram, MergeAddsCountsAndKeepsMax) {
  serve::LatencyHistogram a;
  serve::LatencyHistogram b;
  a.record(10);
  a.record(100);
  b.record(5000);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.max_value(), 5000u);
  EXPECT_EQ(a.sum(), 5110u);
  const std::string json = a.stats_json();
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"p999_us\": "), std::string::npos);
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand) {
  serve::LatencyHistogram h;
  const int threads = 8;
  const int per_thread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&h] {
      for (int i = 0; i < per_thread; ++i) {
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(threads) * per_thread);
  EXPECT_EQ(h.max_value(), static_cast<std::uint64_t>(per_thread - 1));
}

// --- per-interval cache stats (cache_stats_delta) ---------------------------

TEST(QueryEngine, CacheStatsDeltaPartitionsTheCounters) {
  const QueryEngine engine(dial_h(200, 11), 1.0, 0);
  ASSERT_FALSE(engine.kernel().structural);
  WorkloadSpec spec;
  spec.num_queries = 400;
  spec.seed = 5;
  const auto queries = serve::generate_workload(200, spec);

  engine.serve(queries, 1);
  const serve::CacheStats d1 = engine.cache_stats_delta();
  engine.serve(queries, 1);
  const serve::CacheStats d2 = engine.cache_stats_delta();
  const serve::CacheStats total = engine.cache_stats();

  // Every increment lands in exactly one interval.
  EXPECT_EQ(d1.hits + d2.hits, total.hits);
  EXPECT_EQ(d1.misses + d2.misses, total.misses);
  EXPECT_EQ(d1.sssp_runs + d2.sssp_runs, total.sssp_runs);
  EXPECT_EQ(d1.evictions + d2.evictions, total.evictions);
  // entries stays absolute, not an interval delta.
  EXPECT_EQ(d2.entries, total.entries);
  // The second pass is all-hot: no new SSSP work in its interval.
  EXPECT_EQ(d2.sssp_runs, 0);
  EXPECT_GT(d1.sssp_runs, 0);
  // A quiet interval reads all-zero (except the absolute entries gauge).
  const serve::CacheStats d3 = engine.cache_stats_delta();
  EXPECT_EQ(d3.hits, 0);
  EXPECT_EQ(d3.misses, 0);
  EXPECT_EQ(d3.entries, total.entries);
}

TEST(QueryEngine, CacheStatsDeltaConcurrentWithQueries) {
  // TSan coverage: interval snapshots taken while queries are in flight
  // must stay non-negative and sum (with the final flush) to the
  // cumulative counters.
  const Graph g = gen_connected_gnm(300, 1200, 13);
  const QueryEngine engine(build_emulator(g));
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kZipf;
  spec.num_queries = 2000;
  spec.seed = 8;
  const auto queries = serve::generate_workload(300, spec);

  std::atomic<bool> done{false};
  serve::CacheStats accumulated;
  std::thread sampler([&] {
    while (!done.load()) {
      const serve::CacheStats d = engine.cache_stats_delta();
      EXPECT_GE(d.hits, 0);
      EXPECT_GE(d.misses, 0);
      EXPECT_GE(d.sssp_runs, 0);
      accumulated.hits += d.hits;
      accumulated.misses += d.misses;
      accumulated.sssp_runs += d.sssp_runs;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::vector<std::thread> lanes;
  for (int t = 0; t < 4; ++t) {
    lanes.emplace_back([&] { engine.serve(queries, 1); });
  }
  for (auto& t : lanes) t.join();
  done.store(true);
  sampler.join();

  const serve::CacheStats tail = engine.cache_stats_delta();
  accumulated.hits += tail.hits;
  accumulated.misses += tail.misses;
  accumulated.sssp_runs += tail.sssp_runs;
  const serve::CacheStats total = engine.cache_stats();
  EXPECT_EQ(accumulated.hits, total.hits);
  EXPECT_EQ(accumulated.misses, total.misses);
  EXPECT_EQ(accumulated.sssp_runs, total.sssp_runs);
}

TEST(QueryEngine, ConcurrentServeCallsTallyTheirOwnBatches) {
  // Several threads serve batches on one engine at once, as daemon workers
  // do, with the cache-ledger and budget audits on. Each batch must count
  // exactly its own queries as hits + misses; a tiny cache keeps computing
  // slots and evictions in flight while other batches run their audits.
  inv::ScopedAuditsEnabled audits(true);
  ServeOptions options;
  options.cache_shards = 2;
  options.cache_entries_per_shard = 4;
  const QueryEngine engine(dial_h(300, 29), 1.0, 0, options);
  ASSERT_FALSE(engine.kernel().structural);

  constexpr int kThreads = 4;
  constexpr int kBatches = 300;
  constexpr std::int64_t kQueries = 16;
  std::vector<std::thread> lanes;
  std::vector<int> off(kThreads, 0);
  std::vector<std::string> errors(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    lanes.emplace_back([&, t] {
      const auto lane = static_cast<std::size_t>(t);
      WorkloadSpec spec;
      spec.kind = WorkloadKind::kZipf;
      spec.num_queries = kQueries;
      for (int b = 0; b < kBatches; ++b) {
        spec.seed = static_cast<std::uint64_t>(t * kBatches + b);
        const auto queries = serve::generate_workload(300, spec);
        try {
          // Odd lanes fan out over the engine's pool: its chunks tally too.
          const BatchResult r = engine.serve(queries, 1 + t % 2);
          if (r.cache.hits + r.cache.misses != kQueries) ++off[lane];
        } catch (const inv::InvariantViolation& e) {
          ++off[lane];
          errors[lane] = e.what();
        }
      }
    });
  }
  for (auto& t : lanes) t.join();
  for (std::size_t t = 0; t < off.size(); ++t) {
    EXPECT_EQ(off[t], 0) << "lane " << t << ": " << errors[t];
  }
  const serve::CacheStats total = engine.cache_stats();
  EXPECT_EQ(total.hits + total.misses, kThreads * kBatches * kQueries);
  EXPECT_LE(total.entries, 2 * 4);
}

// --- per-query latency recording (ServeOptions::record_latency) -------------

TEST(QueryEngine, ServeRecordsLatencyOnlyWhenRequested) {
  const Graph g = gen_connected_gnm(150, 600, 17);
  const BuildOutput built = build_emulator(g);
  WorkloadSpec spec;
  spec.num_queries = 300;
  spec.seed = 4;
  const auto queries = serve::generate_workload(150, spec);

  const QueryEngine plain(built);
  EXPECT_EQ(plain.serve(queries, 1).latency, nullptr);

  ServeOptions options;
  options.record_latency = true;
  const QueryEngine timed(built, options);
  const BatchResult batch = timed.serve(queries, 2);
  ASSERT_NE(batch.latency, nullptr);
  EXPECT_EQ(batch.latency->count(), 300);
  EXPECT_NE(batch.latency->stats_json().find("\"p50_us\": "),
            std::string::npos);
  // Timing must not change the answers.
  EXPECT_EQ(batch.checksum, plain.serve(queries, 1).checksum);
}

}  // namespace
}  // namespace usne
