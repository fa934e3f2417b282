#pragma once

// Query-serving subsystem: concurrent batched distance queries on a built
// emulator or spanner.
//
// The paper's stated application is computing almost shortest paths —
// constructing the ultra-sparse H is preprocessing; this layer is the
// serving half. A QueryEngine wraps any BuildOutput (usne::build()) and
// answers point-to-point / single-source / batch distance queries from many
// threads at once. Every answer d satisfies the construction's guarantee
//
//   d_G(u,v) <= d <= alpha * d_G(u,v) + beta.
//
// Point queries are answered from H's own shape when it allows: the
// engine peels H into a forest hung on a core at construction
// (serve/forest_core.hpp) and, when the core's distance table is cheap
// (no more memory than H's CSR), answers each pair in O(log n) with no
// SSSP and no cache (KernelInfo says which kernel was picked). Otherwise,
// and for every single-source query, the workhorse is Dial's bucket-queue
// SSSP on H (dial_sssp_csr, path/sssp_kernel.hpp), whose cost depends on
// |H| ~ n, never on |E(G)|. On top of it sits a sharded LRU cache of
// per-source SSSP vectors: shards are locked independently, so a query
// stream with source locality costs one SSSP per hot source regardless of
// how many threads are serving, and concurrent requests for the same cold
// source coalesce into a single computation.
//
// Answers are a pure function of H, so structural, cached, uncached,
// serial and multi-threaded serving are bit-identical —
// tests/test_serve.cpp, tests/test_serve_kernels.cpp and
// bench_query_throughput enforce this, and BatchResult::checksum gives CI a
// one-number seed-stability probe.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"
#include "serve/forest_core.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/workload.hpp"
#include "util/thread_pool.hpp"

namespace usne {
struct BuildOutput;  // api/build.hpp
}

namespace usne::serve {

/// One computed single-source result, shared between the cache and any
/// number of readers. Eviction only drops the cache's reference; vectors
/// handed out stay valid for as long as the caller holds them.
using SsspResult = std::shared_ptr<const std::vector<Dist>>;

/// Engine tuning. Defaults suit the test/bench scale; cache_mb is the knob
/// production would size (the README's "Serving queries" section).
struct ServeOptions {
  /// Lock shards of the SSSP cache. 0 = default (16). More shards = less
  /// contention; sources hash uniformly across them.
  int cache_shards = 0;

  /// Total cache budget in MiB across all shards; one entry costs
  /// ~8 * n bytes. <= 0 disables caching entirely (every query recomputes —
  /// the uncached reference the tests compare against). An enabled cache
  /// also serves repeated sources from a lock-free per-thread memo.
  double cache_mb = 64.0;

  /// Exact per-shard entry capacity override for tests (-1 = derive from
  /// cache_mb). With 0 entries the cache is disabled.
  std::int64_t cache_entries_per_shard = -1;

  /// Record per-query service latency into BatchResult::latency during
  /// serve() (a LatencyHistogram; two steady_clock reads per query). Off
  /// by default so throughput benches measure serving, not timing.
  bool record_latency = false;

  /// Slow-query log threshold in microseconds; 0 (the default) disables
  /// it. When set, serve() times every query (same two clock reads as
  /// record_latency) and any query at or over the threshold emits one
  /// stderr line —
  ///   SLOW_QUERY {"all": 0|1, "threshold_us": T, "u": U, "us": X, "v": V}
  /// — and bumps the usne_serve_slow_queries_total counter. Answers are
  /// unaffected.
  std::int64_t slow_query_us = 0;
};

/// Serving counter snapshot (cumulative since construction). Every query
/// is counted once: as a structural answer, a cache hit or a cache miss.
struct CacheStats {
  std::int64_t structural = 0;  ///< point queries answered by ForestCore
  std::int64_t hits = 0;        ///< served from a cached vector
  std::int64_t misses = 0;      ///< triggered (or coalesced into) an SSSP
  std::int64_t coalesced = 0;   ///< of the misses: waited on another thread
  std::int64_t sssp_runs = 0;   ///< SSSP computations actually executed
  std::int64_t evictions = 0;   ///< LRU entries dropped
  std::int64_t entries = 0;     ///< ready vectors currently resident
};

/// What one serve() batch did. `answers[i]` is the distance for query i;
/// for single-source (all) queries it is the FNV-1a checksum of the full
/// vector folded to int64 (the batch is about throughput accounting — call
/// query_all for the vector itself).
struct BatchResult {
  std::vector<Dist> answers;
  std::int64_t point_queries = 0;
  std::int64_t all_queries = 0;
  /// Counter deltas accrued by this batch's own queries, exact even while
  /// other threads serve the same engine — except `entries`, which is the
  /// absolute resident-entry count after the batch (a delta would go
  /// negative under eviction and mean nothing).
  CacheStats cache;
  double wall_s = 0;
  double qps = 0;                ///< queries / wall_s
  std::uint64_t checksum = 0;    ///< FNV-1a over `answers`, order-sensitive

  /// Per-query service-latency histogram (microseconds), populated only
  /// when ServeOptions::record_latency was set; nullptr otherwise.
  std::shared_ptr<const LatencyHistogram> latency;

  /// One-line JSON of the batch counters (sorted keys), the record
  /// usne_run query and bench_query_throughput embed.
  std::string stats_json() const;
};

/// Preprocess-once, serve-many distance-query engine. All query methods are
/// const and safe to call concurrently from any number of threads.
class QueryEngine {
 public:
  /// Wraps an already-built emulator/spanner H with its stretch guarantee.
  QueryEngine(WeightedGraph h, double alpha, Dist beta,
              ServeOptions options = {});

  /// Convenience: wraps BuildOutput::h() with its computed guarantee.
  /// (H is copied out of `built`; the BuildOutput need not outlive the
  /// engine.) When the build carries no guarantee (has_guarantee == false:
  /// randomized baselines), alpha()/beta() read (1, 0) — a placeholder,
  /// not a claim: don't gate such an engine on sample_query_stretch.
  explicit QueryEngine(const BuildOutput& built, ServeOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;
  ~QueryEngine();

  /// Point-to-point approximate distance (kInfDist if disconnected).
  /// A structural engine answers from ForestCore. A Dial engine serves
  /// from either endpoint's cached vector when available (distances are
  /// symmetric), otherwise computes SSSP from u. Throws std::out_of_range
  /// naming a vertex outside [0, n) before touching any state.
  Dist query(Vertex u, Vertex v) const;

  /// All approximate distances from `source`: Dial + cache on every
  /// engine. Concurrent calls for the same cold source coalesce into one
  /// SSSP. Throws std::out_of_range like query().
  SsspResult query_all(Vertex source) const;

  /// Runs a query batch over `threads` lanes (0 = hardware concurrency,
  /// 1 = serial). Answers are positionally aligned with `queries` and
  /// bit-identical for any thread count. The fan-out runs on a lazily
  /// created pool owned by the engine (rebuilt only when `threads`
  /// changes), so steady-state batches spawn no OS threads; concurrent
  /// multi-threaded serve() calls are safe but serialize on that pool —
  /// point queries (query / query_all) never do. Every query's vertices
  /// are range-checked (std::out_of_range) before any is answered.
  BatchResult serve(std::span<const Query> queries, int threads = 1) const;

  /// Cumulative cache counters since construction.
  CacheStats cache_stats() const;

  /// Counters accrued since the previous cache_stats_delta() call (or
  /// construction), for per-interval rates: the daemon's STATS endpoint.
  /// Calls are serialized on an internal baseline, so every increment is
  /// reported in exactly one interval — concurrent queries never make an
  /// increment vanish or count twice across intervals. `entries` stays the
  /// absolute resident count (a delta would go negative under eviction).
  CacheStats cache_stats_delta() const;

  const WeightedGraph& emulator() const noexcept { return h_; }
  double alpha() const noexcept { return alpha_; }
  Dist beta() const noexcept { return beta_; }

  /// The kernel picked for point queries at construction, and why;
  /// kernel().structural: point queries skip the SSSP kernel and the cache.
  const KernelInfo& kernel() const noexcept { return kernel_; }

 private:
  class Cache;

  // query / query_all on the Dial + cache path, without the range check.
  Dist cached_point(Vertex u, Vertex v) const;
  SsspResult cached_sssp(Vertex source) const;
  std::vector<Dist> compute_sssp(Vertex source) const;

  WeightedGraph h_;
  double alpha_ = 1;
  Dist beta_ = 0;
  ServeOptions options_;
  std::uint64_t engine_id_ = 0;  // unique per engine; keys the source memo
  bool memo_enabled_ = false;

  // Packed CSR the kernel runs on: a view of h_'s own storage.
  WeightedGraph::Csr csr_;
  Dist max_w_ = 0;

  KernelInfo kernel_;
  std::unique_ptr<const ForestCore> structure_;  // null: Dial serves points

  std::unique_ptr<Cache> cache_;
  mutable std::atomic<std::int64_t> sssp_runs_{0};
  mutable std::atomic<std::int64_t> structural_{0};

  // Interval baseline for cache_stats_delta (the mutex orders snapshots so
  // intervals partition the monotone counters exactly).
  mutable std::mutex delta_mutex_;
  mutable CacheStats delta_baseline_;

  // Lazily created batch fan-out pool (see serve()); pool_mutex_ guards
  // both creation and use (util::ThreadPool::parallel_for is not
  // reentrant).
  mutable std::mutex pool_mutex_;
  mutable std::unique_ptr<util::ThreadPool> pool_;
};

/// Accumulates `value` into an FNV-1a checksum; the batch answer
/// probe CI uses for seed stability.
std::uint64_t checksum_accumulate(std::uint64_t hash, std::int64_t value) noexcept;
inline constexpr std::uint64_t kChecksumSeed = 14695981039346656037ULL;

/// Folds a full SSSP vector to the int64 recorded in BatchResult::answers
/// for single-source queries.
Dist checksum_fold(const std::vector<Dist>& dist) noexcept;

}  // namespace usne::serve
