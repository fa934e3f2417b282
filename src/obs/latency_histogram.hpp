#pragma once

// Lock-free fixed log-bucket latency histogram.
//
// Serving needs percentiles, not means: a daemon answering millions of
// queries is judged by its p99/p999 tail, and a tail cannot be
// reconstructed from an aggregate qps number. This histogram is the one
// latency primitive of the repository — the metrics registry's histogram
// series (obs/metrics.hpp), QueryEngine::serve's per-query service times
// (ServeOptions::record_latency), net::Server's per-thread instances merged
// on a STATS request, and usne_loadgen's client-observed wire latency.
//
// Design: HdrHistogram-lite. Values (microseconds by convention, but the
// buckets are unit-agnostic) land in log-spaced buckets with kSubBits
// sub-buckets per octave, giving a fixed relative resolution of
// 2^-kSubBits (= 12.5%) at every magnitude with a small constant footprint
// (kBucketCount counters, ~4 KiB). record() is a single relaxed atomic
// increment — safe from any number of threads, no locks, no allocation —
// so it can sit on the hot serving path. Reads (percentile, merge_from,
// stats_json) are racy-but-consistent snapshots: each counter is read
// atomically, which is exactly the guarantee a stats endpoint needs.
//
// Percentiles are reported as the *upper bound* of the bucket containing
// the requested rank (clamped to the true observed maximum), so a reported
// p99 never understates the tail.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace usne::obs {

class LatencyHistogram {
 public:
  /// Sub-buckets per octave: 2^kSubBits buckets between consecutive powers
  /// of two, i.e. 12.5% relative bucket width.
  static constexpr int kSubBits = 3;

  /// Total bucket count; covers the full uint64 value range.
  static constexpr int kBucketCount = 64 << kSubBits;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one value. Lock-free (relaxed atomics); any thread.
  void record(std::uint64_t value) noexcept;

  /// Adds `other`'s counts into this histogram (relaxed reads of `other`,
  /// so merging while `other` is still being written yields a consistent
  /// point-in-time-ish snapshot — the daemon's per-worker -> STATS merge).
  void merge_from(const LatencyHistogram& other) noexcept;

  /// Zeroes every counter.
  void reset() noexcept;

  std::int64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  std::uint64_t max_value() const noexcept;

  /// Value at quantile p in [0, 1]: the upper bound of the bucket holding
  /// the ceil(p * count)-th smallest recorded value, clamped to
  /// max_value(). 0 when empty.
  std::uint64_t percentile(double p) const noexcept;

  /// One-line JSON (sorted keys):
  ///   {"count": N, "max_us": M, "mean_us": X, "p50_us": A, "p99_us": B,
  ///    "p999_us": C}
  /// The *_us suffix is the serving stack's convention (record() is fed
  /// microseconds everywhere in this repository).
  std::string stats_json() const;

  /// Bucket mapping, exposed for tests: values < 2^(kSubBits+1) map to
  /// themselves (exact), larger values to log-spaced sub-buckets.
  static int bucket_index(std::uint64_t value) noexcept;
  /// Largest value mapping to `index` (inverse of bucket_index).
  static std::uint64_t bucket_upper_bound(int index) noexcept;

  /// Recorded count of bucket `index` (relaxed read; the per-bucket view
  /// the obs layer's Prometheus histogram exposition is built from).
  std::int64_t bucket_count(int index) const noexcept {
    return counts_[static_cast<std::size_t>(index)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::int64_t>, kBucketCount> counts_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace usne::obs
