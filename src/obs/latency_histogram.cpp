#include "obs/latency_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/table.hpp"

namespace usne::obs {

namespace {
/// Values below this are bucketed exactly (index == value).
constexpr std::uint64_t kLinearLimit =
    1ULL << (LatencyHistogram::kSubBits + 1);
constexpr std::uint64_t kSubMask = (1ULL << LatencyHistogram::kSubBits) - 1;
}  // namespace

int LatencyHistogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kLinearLimit) return static_cast<int>(value);
  const int exp = std::bit_width(value) - 1;  // >= kSubBits + 1
  const int sub = static_cast<int>((value >> (exp - kSubBits)) & kSubMask);
  return (((exp - kSubBits) << kSubBits) | sub) +
         static_cast<int>(1ULL << kSubBits);
}

std::uint64_t LatencyHistogram::bucket_upper_bound(int index) noexcept {
  if (index < 0) return 0;
  if (static_cast<std::uint64_t>(index) < kLinearLimit) {
    return static_cast<std::uint64_t>(index);
  }
  const int block = ((index - static_cast<int>(1ULL << kSubBits)) >> kSubBits);
  const int exp = block + kSubBits;
  const int sub = index & static_cast<int>(kSubMask);
  const int scale = exp - kSubBits;
  const std::uint64_t lower =
      (1ULL << exp) + (static_cast<std::uint64_t>(sub) << scale);
  return lower + (1ULL << scale) - 1;
}

void LatencyHistogram::record(std::uint64_t value) noexcept {
  counts_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::merge_from(const LatencyHistogram& other) noexcept {
  for (int b = 0; b < kBucketCount; ++b) {
    const std::int64_t n =
        other.counts_[static_cast<std::size_t>(b)].load(
            std::memory_order_relaxed);
    if (n != 0) {
      counts_[static_cast<std::size_t>(b)].fetch_add(
          n, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  const std::uint64_t other_max = other.max_.load(std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (other_max > prev && !max_.compare_exchange_weak(
                                 prev, other_max, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::int64_t LatencyHistogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::max_value() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::percentile(double p) const noexcept {
  const std::int64_t total = count();
  if (total <= 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const std::int64_t target = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(p * static_cast<double>(total))));
  std::int64_t seen = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    seen += counts_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
    if (seen >= target) {
      return std::min(bucket_upper_bound(b), max_value());
    }
  }
  return max_value();
}

std::string LatencyHistogram::stats_json() const {
  const std::int64_t n = count();
  const double mean =
      n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  std::ostringstream out;
  out << "{\"count\": " << n << ", \"max_us\": " << max_value()
      << ", \"mean_us\": " << format_double(mean, 1)
      << ", \"p50_us\": " << percentile(0.50)
      << ", \"p99_us\": " << percentile(0.99)
      << ", \"p999_us\": " << percentile(0.999) << "}";
  return out.str();
}

}  // namespace usne::obs
