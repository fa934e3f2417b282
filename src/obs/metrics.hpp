#pragma once

// Process-global metrics registry: named counters, gauges and log-bucket
// histograms, exported as JSON and as the Prometheus text exposition
// format.
//
// Design goals, in order:
//
//   1. Hot paths touch pre-resolved handles, never the registry. A
//      subsystem resolves `obs::Counter&` / `obs::Gauge&` /
//      `obs::LatencyHistogram&` once at setup (registry lookup under a
//      mutex) and then increments a relaxed atomic — the same cost as the
//      hand-rolled counters the daemon already had. Handles stay valid for
//      the life of the process (the registry never erases a series).
//   2. Subsystems that already own their counters do not double-count.
//      net::Server's ServerStats and the QueryEngine cache keep their
//      existing atomics; they register a *collector* — a callback run at
//      scrape time that snapshots those atomics into named samples. The
//      metrics page is therefore exactly as consistent as the underlying
//      ledger it mirrors (scripts/pins.json reconciles the daemon page at
//      quiescence with the same conservation law the `daemon` invariant
//      audits).
//   3. Deterministic output: series are emitted in sorted name order, so
//      two scrapes of the same state are byte-identical.
//
// Naming schema (enforced): `usne_<layer>_<name>` — e.g.
// `usne_net_accepted_total`, `usne_serve_slow_queries_total`,
// `usne_congest_rounds_total`. Counters end in `_total`; histograms are fed
// microseconds and end in `_us`. Names must match
// [a-zA-Z_][a-zA-Z0-9_]* (the Prometheus charset, no labels).
//
// Histograms are obs::LatencyHistogram (obs/latency_histogram.hpp), the
// lock-free HdrHistogram-lite the serving stack also records into, exported
// as genuine Prometheus histograms: cumulative `_bucket{le="..."}` series
// (non-empty buckets only, plus +Inf), `_sum` and `_count`.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/latency_histogram.hpp"

namespace usne::obs {

/// Monotonically increasing counter. add() is a relaxed atomic increment —
/// any thread, no locks.
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depths, in-flight counts).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// One scrape-time sample produced by a collector callback.
struct Sample {
  std::string name;        ///< full metric name (usne_<layer>_<name>)
  std::int64_t value = 0;  ///< sampled value
  bool is_counter = true;  ///< Prometheus TYPE: counter vs gauge
};

/// The registry. One process-global instance (global()); tests may hold
/// private instances. Series are created on first use and never erased, so
/// returned references are stable handles safe to cache on hot paths.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-global registry every subsystem registers into.
  static Registry& global();

  /// Resolves (creating on first use) the named series. Throws
  /// std::invalid_argument on a malformed name or when the name is already
  /// registered as a different series type.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// A collector snapshots externally-owned state into samples at scrape
  /// time. Returns an id for remove_collector (needed by owners whose
  /// lifetime is shorter than the process — net::Server deregisters in its
  /// destructor).
  using Collector = std::function<std::vector<Sample>()>;
  std::size_t add_collector(Collector fn);
  void remove_collector(std::size_t id);

  /// Prometheus text exposition (version 0.0.4): HELP-less `# TYPE` +
  /// sample lines, series sorted by name, collector samples merged in.
  std::string prometheus_text() const;

  /// One-line JSON: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, max_us, mean_us, p50_us, ...}}}, all keys
  /// sorted. Collector samples fold into counters/gauges by type.
  std::string json() const;

  /// Zeroes every owned counter/gauge/histogram (collectors are untouched —
  /// they mirror external state). Test support.
  void reset_values();

 private:
  struct Scrape;  // collected snapshot, built under mu_
  Scrape collect() const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> hists_;
  std::map<std::size_t, Collector> collectors_;
  std::size_t next_collector_id_ = 0;
};

/// Convenience: pre-resolved handles into the global registry.
inline Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::global().gauge(name);
}
inline LatencyHistogram& histogram(const std::string& name) {
  return Registry::global().histogram(name);
}

}  // namespace usne::obs
