#include "serve/query_engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <list>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "api/build.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "path/sssp_kernel.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace usne::serve {
namespace {

constexpr int kDefaultShards = 16;

/// SplitMix64 mix so consecutive source ids spread across shards.
std::size_t shard_of(Vertex source, std::size_t shards) noexcept {
  return static_cast<std::size_t>(
      SplitMix64(static_cast<std::uint64_t>(source)).next() % shards);
}

std::int64_t capacity_per_shard(Vertex n, const ServeOptions& options,
                                std::size_t shards) {
  if (options.cache_entries_per_shard >= 0) {
    return options.cache_entries_per_shard;
  }
  if (options.cache_mb <= 0) return 0;
  const double entry_bytes =
      static_cast<double>(std::max<Vertex>(n, 1)) * sizeof(Dist);
  const double total =
      options.cache_mb * 1024.0 * 1024.0 / entry_bytes;
  // At least one entry per shard once a cache was requested at all:
  // a budget too small to hold anything would silently degrade to
  // recompute-always, which is what cache_mb <= 0 is for.
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                       total / static_cast<double>(shards)));
}

/// Monotone engine ids keep the thread-local source memo sound: a memo
/// entry is only trusted when its id matches the engine asking, and ids are
/// never reused even if an engine is destroyed and another allocated at the
/// same address.
std::atomic<std::uint64_t> next_engine_id{1};

/// Last-source memo, one per serving thread. Grouped/repeated-source query
/// streams hit this before touching the shard mutex or splicing the LRU
/// list — the fast path is two integer compares and a shared_ptr deref.
/// The memo pins at most one SSSP vector per thread (dropped the next time
/// the thread serves a different source or engine).
struct SourceMemo {
  std::uint64_t engine = 0;
  Vertex source = -1;
  SsspResult result;
};

thread_local SourceMemo t_memo;

/// This thread's share of the cache counters of every engine it serves
/// (`entries` and `structural` unused). serve() reads it around each
/// lane's chunk, so a batch counts its own queries however many threads
/// share the engine.
thread_local CacheStats t_tally;

void bump(std::atomic<std::int64_t>& total, std::int64_t& mine) noexcept {
  total.fetch_add(1, std::memory_order_relaxed);
  ++mine;
}

/// Adds `sign` times the cache counters of `d` (not `entries`, and not
/// `structural`, which serve() counts per batch) to `into`.
void add_counters(CacheStats& into, const CacheStats& d,
                  std::int64_t sign = 1) noexcept {
  into.hits += sign * d.hits;
  into.misses += sign * d.misses;
  into.coalesced += sign * d.coalesced;
  into.sssp_runs += sign * d.sssp_runs;
  into.evictions += sign * d.evictions;
}

/// The usne_serve_* series of the global metrics page, resolved once.
/// Each entry point counts its queries on `queries` itself and mirrors the
/// hits, misses and structural answers from their own tallies, so the
/// page's ledger (hits + misses + structural == queries) checks something.
struct ServePage {
  obs::Counter& queries = obs::counter("usne_serve_queries_total");
  obs::Counter& hits = obs::counter("usne_serve_cache_hits_total");
  obs::Counter& misses = obs::counter("usne_serve_cache_misses_total");
  obs::Counter& structural =
      obs::counter("usne_serve_structural_queries_total");
  obs::Counter& sssp_runs = obs::counter("usne_serve_sssp_runs_total");
  obs::Counter& batches = obs::counter("usne_serve_batches_total");

  void mirror(const CacheStats& d) noexcept {
    hits.add(d.hits);
    misses.add(d.misses);
    structural.add(d.structural);
    sssp_runs.add(d.sssp_runs);
  }
};

ServePage& page() {
  static ServePage handles;
  return handles;
}

/// Runs a cache-path lookup and mirrors what this thread's tally counted
/// meanwhile onto the page (query() and query_all(); serve() mirrors once
/// per batch).
template <typename Lookup>
auto mirrored(Lookup&& lookup) {
  CacheStats delta;
  add_counters(delta, t_tally, -1);
  auto answer = lookup();
  add_counters(delta, t_tally);
  page().mirror(delta);
  return answer;
}

/// Audit-only: the structural kernel against Dial over all of H, from three
/// sources to every target.
bool agrees_with_dial(const ForestCore& structure,
                      const WeightedGraph::Csr& csr, Dist max_w) {
  SsspScratch scratch;
  for (const Vertex s : {Vertex{0}, csr.n / 2, csr.n - 1}) {
    const std::vector<Dist> dist = dial_sssp_csr(csr, s, max_w, scratch);
    for (Vertex v = 0; v < csr.n; ++v) {
      if (structure.distance(s, v) != dist[static_cast<std::size_t>(v)]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sharded LRU cache of per-source SSSP vectors.
//
// Each shard is an independent mutex + LRU list + map. A cold source
// inserts a "computing" slot (result == nullptr) and releases the shard
// lock while the SSSP runs, so one slow computation never blocks the
// shard's other sources; concurrent requests for the same source wait on
// the shard condition variable instead of duplicating the work. Eviction
// drops ready entries from the LRU tail — never computing slots, and never
// the vectors already handed out (shared_ptr keeps them alive). A shard
// never holds more than its capacity of ready entries, whatever is
// computing, and `resident_` only ever moves by a shard's net change.

class QueryEngine::Cache {
 public:
  Cache(std::size_t shards, std::int64_t per_shard)
      : shards_(shards), capacity_(per_shard) {
    slots_ = std::make_unique<Shard[]>(shards_);
  }

  bool enabled() const noexcept { return capacity_ > 0; }
  std::size_t shard_count() const noexcept { return shards_; }
  std::int64_t capacity_per_shard() const noexcept { return capacity_; }

  /// Accounts a memo fast-path hit so hit/miss stats stay consistent with
  /// what the queries actually cost (a memo hit is a cache hit that skipped
  /// the shard lock).
  void count_hit() noexcept { bump(hits_, t_tally.hits); }

  /// Returns the cached vector (counting a hit and bumping LRU recency) or
  /// nullptr without any side effects.
  SsspResult peek(Vertex source) {
    if (!enabled()) return nullptr;
    Shard& sh = slots_[shard_of(source, shards_)];
    std::lock_guard<std::mutex> lock(sh.mutex);
    const auto it = sh.map.find(source);
    if (it == sh.map.end() || !it->second.result) return nullptr;
    touch(sh, it->second);
    bump(hits_, t_tally.hits);
    return it->second.result;
  }

  /// Lookup-or-compute. `compute` runs outside the shard lock.
  template <typename ComputeFn>
  SsspResult get(Vertex source, ComputeFn&& compute) {
    if (!enabled()) {
      bump(misses_, t_tally.misses);
      return std::make_shared<const std::vector<Dist>>(compute(source));
    }
    Shard& sh = slots_[shard_of(source, shards_)];
    std::unique_lock<std::mutex> lock(sh.mutex);
    bool waited = false;
    for (;;) {
      const auto it = sh.map.find(source);
      if (it == sh.map.end()) break;  // cold (or evicted while we waited)
      if (it->second.result) {
        touch(sh, it->second);
        if (waited) {
          bump(misses_, t_tally.misses);
          bump(coalesced_, t_tally.coalesced);
        } else {
          bump(hits_, t_tally.hits);
        }
        return it->second.result;
      }
      waited = true;  // another thread is computing this source
      USNE_TRACE_SPAN("serve.coalesce_wait");
      sh.cv.wait(lock);
    }

    bump(misses_, t_tally.misses);
    sh.lru.push_front(source);
    sh.map.emplace(source, Slot{nullptr, sh.lru.begin()});
    lock.unlock();

    SsspResult result;
    try {
      result = std::make_shared<const std::vector<Dist>>(compute(source));
    } catch (...) {
      lock.lock();
      erase(sh, source);
      sh.cv.notify_all();
      throw;
    }

    lock.lock();
    const auto it = sh.map.find(source);
    std::int64_t ready = 0;
    if (it != sh.map.end() && !it->second.result) {
      it->second.result = result;
      ready = 1;
    }
    resident_.fetch_add(ready - evict_over_capacity(sh),
                        std::memory_order_relaxed);
    sh.cv.notify_all();
    return result;
  }

  void fill_stats(CacheStats& stats) const {
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.coalesced = coalesced_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.entries = resident();
  }

  /// Ready vectors resident across all shards; at most shards x capacity.
  std::int64_t resident() const noexcept {
    return resident_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    SsspResult result;  // nullptr while a thread is computing it
    std::list<Vertex>::iterator pos;
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    std::list<Vertex> lru;  // front = most recently used
    std::unordered_map<Vertex, Slot> map;
  };

  void touch(Shard& sh, Slot& slot) {
    sh.lru.splice(sh.lru.begin(), sh.lru, slot.pos);
  }

  void erase(Shard& sh, Vertex source) {
    const auto it = sh.map.find(source);
    if (it == sh.map.end()) return;
    sh.lru.erase(it->second.pos);
    sh.map.erase(it);
  }

  // Returns the number of ready entries evicted.
  std::int64_t evict_over_capacity(Shard& sh) {
    // Walk from the LRU tail, skipping computing slots (their owner holds
    // no lock and expects the slot to still exist). If only computing
    // slots remain the shard runs transiently over capacity.
    std::int64_t evicted = 0;
    auto it = sh.lru.end();
    while (static_cast<std::int64_t>(sh.map.size()) > capacity_ &&
           it != sh.lru.begin()) {
      --it;
      const auto slot = sh.map.find(*it);
      if (!slot->second.result) continue;
      it = sh.lru.erase(it);
      sh.map.erase(slot);
      bump(evictions_, t_tally.evictions);
      ++evicted;
    }
    return evicted;
  }

  const std::size_t shards_;
  const std::int64_t capacity_;  // entries per shard; 0 = disabled
  std::unique_ptr<Shard[]> slots_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> coalesced_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> resident_{0};
};

// ---------------------------------------------------------------------------

QueryEngine::QueryEngine(WeightedGraph h, double alpha, Dist beta,
                         ServeOptions options)
    : h_(std::move(h)),
      alpha_(alpha),
      beta_(beta),
      options_(options),
      engine_id_(next_engine_id.fetch_add(1, std::memory_order_relaxed)) {
  const std::size_t shards = static_cast<std::size_t>(
      options.cache_shards > 0 ? options.cache_shards : kDefaultShards);
  cache_ = std::make_unique<Cache>(
      shards, capacity_per_shard(h_.num_vertices(), options, shards));
  // An uncached engine must stay a strict recompute-every-query reference
  // (tests rely on sssp_runs == queries), so the memo rides on the cache.
  memo_enabled_ = cache_->enabled();
  // Force the lazy CSR now: it is a mutable cache inside WeightedGraph, and
  // the serving threads must only ever read it.
  csr_ = h_.csr();
  // Structural audit of the CSR every query will run on, so a packing bug
  // is caught here, not as a wrong answer downstream.
  if (inv::audits_enabled()) {
    std::string error;
    USNE_CHECK(inv::Category::kCsr, validate_csr(csr_, &error), error);
  }
  max_w_ = max_edge_weight(csr_);
  structure_ = ForestCore::build(csr_, kernel_);
  USNE_AUDIT(inv::Category::kSssp,
             !structure_ || h_.num_vertices() == 0 ||
                 agrees_with_dial(*structure_, csr_, max_w_),
             "structural kernel disagrees with dial_sssp_csr on H");
}

QueryEngine::QueryEngine(const BuildOutput& built, ServeOptions options)
    : QueryEngine(built.h(), built.has_guarantee ? built.alpha : 1.0,
                  built.has_guarantee ? built.beta : 0, options) {}

QueryEngine::~QueryEngine() = default;

std::vector<Dist> QueryEngine::compute_sssp(Vertex source) const {
  USNE_TRACE_SPAN("serve.sssp_kernel");
  bump(sssp_runs_, t_tally.sssp_runs);
  thread_local SsspScratch scratch;
  return dial_sssp_csr(csr_, source, max_w_, scratch);
}

SsspResult QueryEngine::query_all(Vertex s) const {
  check_vertex(h_.num_vertices(), s, "QueryEngine::query_all");
  page().queries.add(1);
  return mirrored([&] { return cached_sssp(s); });
}

SsspResult QueryEngine::cached_sssp(Vertex source) const {
  if (memo_enabled_) {
    SourceMemo& memo = t_memo;
    if (memo.engine == engine_id_ && memo.source == source) {
      cache_->count_hit();
      return memo.result;
    }
  }
  USNE_TRACE_SPAN("serve.cache_lookup");
  SsspResult result =
      cache_->get(source, [this](Vertex s) { return compute_sssp(s); });
  if (memo_enabled_) t_memo = {engine_id_, source, result};
  return result;
}

Dist QueryEngine::query(Vertex u, Vertex v) const {
  check_vertex(h_.num_vertices(), u, "QueryEngine::query");
  check_vertex(h_.num_vertices(), v, "QueryEngine::query");
  page().queries.add(1);
  if (structure_) {
    structural_.fetch_add(1, std::memory_order_relaxed);
    page().structural.add(1);
    return structure_->distance(u, v);
  }
  return mirrored([&] { return cached_point(u, v); });
}

Dist QueryEngine::cached_point(Vertex u, Vertex v) const {
  if (memo_enabled_) {
    const SourceMemo& memo = t_memo;
    if (memo.engine == engine_id_) {
      // Distances on the undirected H are symmetric, so either endpoint's
      // vector answers the query.
      if (memo.source == u) {
        cache_->count_hit();
        return (*memo.result)[static_cast<std::size_t>(v)];
      }
      if (memo.source == v) {
        cache_->count_hit();
        return (*memo.result)[static_cast<std::size_t>(u)];
      }
    }
  }
  // Serve from whichever endpoint is already cached before paying for an
  // SSSP from u.
  if (SsspResult cached = cache_->peek(u)) {
    const Dist d = (*cached)[static_cast<std::size_t>(v)];
    if (memo_enabled_) t_memo = {engine_id_, u, std::move(cached)};
    return d;
  }
  if (SsspResult cached = cache_->peek(v)) {
    const Dist d = (*cached)[static_cast<std::size_t>(u)];
    if (memo_enabled_) t_memo = {engine_id_, v, std::move(cached)};
    return d;
  }
  return (*cached_sssp(u))[static_cast<std::size_t>(v)];
}

CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  cache_->fill_stats(stats);
  stats.structural = structural_.load(std::memory_order_relaxed);
  stats.sssp_runs = sssp_runs_.load(std::memory_order_relaxed);
  return stats;
}

CacheStats QueryEngine::cache_stats_delta() const {
  std::lock_guard<std::mutex> lock(delta_mutex_);
  const CacheStats cur = cache_stats();
  CacheStats delta;
  delta.structural = cur.structural - delta_baseline_.structural;
  delta.hits = cur.hits - delta_baseline_.hits;
  delta.misses = cur.misses - delta_baseline_.misses;
  delta.coalesced = cur.coalesced - delta_baseline_.coalesced;
  delta.sssp_runs = cur.sssp_runs - delta_baseline_.sssp_runs;
  delta.evictions = cur.evictions - delta_baseline_.evictions;
  delta.entries = cur.entries;  // absolute, not an interval delta
  delta_baseline_ = cur;
  return delta;
}

BatchResult QueryEngine::serve(std::span<const Query> queries,
                               int threads) const {
  if (threads == 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  threads = std::max(1, threads);
  for (const Query& q : queries) {
    check_vertex(h_.num_vertices(), q.u, "QueryEngine::serve");
    if (!q.all) check_vertex(h_.num_vertices(), q.v, "QueryEngine::serve");
  }

  BatchResult result;
  result.answers.assign(queries.size(), 0);

  // Latency recording is opt-in: the histogram is thread-safe (relaxed
  // atomics), so every serving lane records into the one instance.
  std::shared_ptr<obs::LatencyHistogram> latency =
      options_.record_latency ? std::make_shared<obs::LatencyHistogram>()
                              : nullptr;

  const auto answer_one = [&](std::size_t i) {
    USNE_TRACE_SPAN("serve.query");
    const Query& q = queries[i];
    if (q.all) {
      result.answers[i] = checksum_fold(*cached_sssp(q.u));
    } else if (structure_) {
      result.answers[i] = structure_->distance(q.u, q.v);
    } else {
      result.answers[i] = cached_point(q.u, q.v);
    }
  };
  const std::int64_t slow_us = options_.slow_query_us;
  const auto run_one = [&](std::size_t i) {
    if (!latency && slow_us <= 0) {
      answer_one(i);
      return;
    }
    Timer per_query;
    answer_one(i);
    const std::int64_t us = per_query.micros();
    if (latency) latency->record(static_cast<std::uint64_t>(us));
    if (slow_us > 0 && us >= slow_us) {
      static obs::Counter& slow_total =
          obs::counter("usne_serve_slow_queries_total");
      slow_total.add(1);
      const Query& q = queries[i];
      // One stdio call per line so concurrent lanes never interleave
      // mid-line (stdio locks per call). Format documented in the README's
      // Observability section and in ServeOptions::slow_query_us.
      std::ostringstream line;
      line << "SLOW_QUERY {\"all\": " << (q.all ? 1 : 0)
           << ", \"threshold_us\": " << slow_us << ", \"u\": " << q.u
           << ", \"us\": " << us << ", \"v\": " << q.v << "}\n";
      std::fputs(line.str().c_str(), stderr);
    }
  };

  const bool parallel = threads > 1 && queries.size() > 1;
  std::unique_lock<std::mutex> pool_lock(pool_mutex_, std::defer_lock);
  if (parallel) {
    // The pool persists across batches (spawning OS threads per batch is
    // not a serving-path cost, and creation stays outside the timed
    // region); the lock also serializes concurrent multi-threaded batches,
    // since parallel_for is not reentrant.
    pool_lock.lock();
    if (!pool_ || pool_->parallelism() != threads) {
      pool_ = std::make_unique<util::ThreadPool>(threads);
    }
  }

  // A chunk's cache tally is what its lane's thread counted meanwhile.
  const auto run_chunk = [&](std::size_t begin, std::size_t end) {
    CacheStats tally;
    add_counters(tally, t_tally, -1);
    for (std::size_t i = begin; i < end; ++i) run_one(i);
    add_counters(tally, t_tally);
    return tally;
  };

  Timer timer;
  if (!parallel) {
    result.cache = run_chunk(0, queries.size());
  } else {
    // More chunks than lanes: the pool's shared cursor then load-balances
    // skew (a chunk of hot cached sources finishes early, its lane moves
    // on). Answers land positionally, so chunking never affects results.
    const std::size_t chunks =
        std::min(queries.size(), static_cast<std::size_t>(threads) * 8);
    std::vector<CacheStats> tallies(chunks);
    pool_->parallel_for(static_cast<int>(chunks), [&](int c) {
      const std::size_t begin = queries.size() * static_cast<std::size_t>(c) / chunks;
      const std::size_t end =
          queries.size() * (static_cast<std::size_t>(c) + 1) / chunks;
      tallies[static_cast<std::size_t>(c)] = run_chunk(begin, end);
    });
    for (const CacheStats& t : tallies) add_counters(result.cache, t);
  }
  result.wall_s = timer.seconds();
  result.qps = result.wall_s > 0
                   ? static_cast<double>(queries.size()) / result.wall_s
                   : 0;

  for (const Query& q : queries) {
    if (q.all) {
      ++result.all_queries;
    } else {
      ++result.point_queries;
    }
  }
  // A structural engine answers every point query itself: one counter
  // update per batch, not per query.
  if (structure_) {
    result.cache.structural = result.point_queries;
    structural_.fetch_add(result.point_queries, std::memory_order_relaxed);
  }
  result.cache.entries = cache_->resident();

  // Serving ledger conservation, exact however many threads serve this
  // engine at once. Every query is accounted exactly once as a structural
  // answer, a hit or a miss — the memo fast path feeds count_hit()
  // precisely so this ledger balances — and SSSP work never exceeds the
  // misses that requested it.
  USNE_AUDIT(inv::Category::kServeCache,
             result.cache.hits + result.cache.misses +
                         result.cache.structural ==
                     static_cast<std::int64_t>(queries.size()) &&
                 result.cache.sssp_runs <= result.cache.misses &&
                 result.cache.coalesced <= result.cache.misses,
             "serving ledger off: hits " + std::to_string(result.cache.hits) +
                 " + misses " + std::to_string(result.cache.misses) +
                 " + structural " + std::to_string(result.cache.structural) +
                 " != queries " + std::to_string(queries.size()) +
                 " (sssp_runs " + std::to_string(result.cache.sssp_runs) +
                 ", coalesced " + std::to_string(result.cache.coalesced) +
                 ")");
  // Shard accounting vs the cache_mb budget: the resident entries fit the
  // per-shard capacities even while other threads hold computing slots,
  // and — when capacity was derived from cache_mb — the resident bytes fit
  // the budget (plus the documented one-entry-per-shard floor).
  USNE_AUDIT(
      inv::Category::kServeCache,
      [&] {
        const auto shards =
            static_cast<std::int64_t>(cache_->shard_count());
        const std::int64_t cap = cache_->capacity_per_shard();
        if (result.cache.entries > shards * cap) return false;
        if (options_.cache_mb <= 0 || options_.cache_entries_per_shard >= 0) {
          return true;  // disabled or explicitly sized in entries
        }
        const double entry_bytes =
            static_cast<double>(std::max<Vertex>(h_.num_vertices(), 1)) *
            sizeof(Dist);
        const double budget = options_.cache_mb * 1024.0 * 1024.0 +
                              static_cast<double>(shards) * entry_bytes;
        return static_cast<double>(result.cache.entries) * entry_bytes <=
               budget;
      }(),
      "cache over budget: " + std::to_string(result.cache.entries) +
          " resident entries, " +
          std::to_string(cache_->shard_count()) + " shard(s) of " +
          std::to_string(cache_->capacity_per_shard()) + " entries, " +
          format_double(options_.cache_mb, 2) + " MiB budget");

  std::uint64_t hash = kChecksumSeed;
  for (const Dist d : result.answers) hash = checksum_accumulate(hash, d);
  result.checksum = hash;
  result.latency = std::move(latency);

  // Mirror the batch onto the global metrics page once per batch (cold
  // path): the per-query path stays untouched.
  page().queries.add(static_cast<std::int64_t>(queries.size()));
  page().mirror(result.cache);
  page().batches.add(1);
  return result;
}

std::string BatchResult::stats_json() const {
  std::ostringstream out;
  out << "{\"all_queries\": " << all_queries
      << ", \"cache_coalesced\": " << cache.coalesced
      << ", \"cache_entries\": " << cache.entries
      << ", \"cache_evictions\": " << cache.evictions
      << ", \"cache_hits\": " << cache.hits
      << ", \"cache_misses\": " << cache.misses
      << ", \"checksum\": " << checksum
      << ", \"point_queries\": " << point_queries
      << ", \"qps\": " << format_double(qps, 1)
      << ", \"queries\": " << point_queries + all_queries
      << ", \"sssp_runs\": " << cache.sssp_runs
      << ", \"structural\": " << cache.structural
      << ", \"wall_s\": " << format_double(wall_s, 4) << "}";
  return out.str();
}

std::uint64_t checksum_accumulate(std::uint64_t hash,
                                  std::int64_t value) noexcept {
  const std::uint64_t bits = static_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

Dist checksum_fold(const std::vector<Dist>& dist) noexcept {
  std::uint64_t hash = kChecksumSeed;
  for (const Dist d : dist) hash = checksum_accumulate(hash, d);
  return static_cast<Dist>(hash & 0x7fffffffffffffffULL);
}

}  // namespace usne::serve
