// Tests for the observability layer (src/obs/): metrics registry —
// concurrent counter/gauge/histogram recording, name validation, type
// collisions, collector lifecycle, Prometheus round-trip reconciliation,
// JSON export — and span tracing — ring wraparound, nested-span balance,
// mid-span disable, Chrome trace-event dump shape.
//
// Built with -DUSNE_SAN=thread this binary is part of the TSan gate (ctest
// label "tsan"): the concurrent-record tests hammer one Counter and one
// LatencyHistogram from many threads while a scraper thread reads the
// Prometheus page.
//
// Trace dump/reset are quiescent operations (trace.hpp contract), so every
// tracing test joins its worker threads before dumping, and resets the
// global ring state on entry.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/latency_histogram.hpp"
#include "test_helpers.hpp"

namespace usne {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Registry;
using obs::Sample;
using obs::TraceSpan;
using serve::LatencyHistogram;

// --- metrics: handles -------------------------------------------------------

TEST(ObsMetrics, CounterConcurrentAddSumsExactly) {
  Registry reg;
  Counter& c = reg.counter("usne_test_adds_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  Registry reg;
  Gauge& g = reg.gauge("usne_test_depth");
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-10);
  EXPECT_EQ(g.value(), 32);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsMetrics, HandlesAreStableAcrossLookups) {
  Registry reg;
  Counter& a = reg.counter("usne_test_stable_total");
  // Force map growth with many other series, then re-resolve.
  for (int i = 0; i < 100; ++i) {
    reg.counter("usne_test_filler_" + std::to_string(i) + "_total");
  }
  Counter& b = reg.counter("usne_test_stable_total");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5);
}

TEST(ObsMetrics, HistogramConcurrentRecordAndMerge) {
  Registry reg;
  LatencyHistogram& h = reg.histogram("usne_test_latency_us");
  constexpr int kThreads = 6;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t * kPerThread + i) % 5000 + 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(kThreads) * kPerThread);

  // merge_from doubles every bucket.
  LatencyHistogram other;
  other.merge_from(h);
  other.merge_from(h);
  EXPECT_EQ(other.count(), 2 * h.count());
  EXPECT_EQ(other.sum(), 2 * h.sum());
  EXPECT_EQ(other.max_value(), h.max_value());
}

// --- metrics: registry semantics ---------------------------------------------

TEST(ObsMetrics, RejectsMalformedNames) {
  Registry reg;
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  EXPECT_THROW(reg.counter("usne-test-total"), std::invalid_argument);
  EXPECT_THROW(reg.counter("usne_test{label}"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("9starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("has space"), std::invalid_argument);
  // Leading underscore and mixed case are legal Prometheus names.
  EXPECT_NO_THROW(reg.counter("_usne_Test_total"));
}

TEST(ObsMetrics, RejectsCrossTypeCollision) {
  Registry reg;
  reg.counter("usne_test_series_total");
  EXPECT_THROW(reg.gauge("usne_test_series_total"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("usne_test_series_total"),
               std::invalid_argument);
  // Same type re-resolves fine.
  EXPECT_NO_THROW(reg.counter("usne_test_series_total"));
}

TEST(ObsMetrics, CollectorAddRemove) {
  Registry reg;
  const std::size_t id = reg.add_collector([] {
    std::vector<Sample> out;
    out.push_back({"usne_test_collected_total", 7, true});
    out.push_back({"usne_test_collected_depth", 3, false});
    return out;
  });
  std::string page = reg.prometheus_text();
  EXPECT_NE(page.find("usne_test_collected_total 7"), std::string::npos);
  EXPECT_NE(page.find("usne_test_collected_depth 3"), std::string::npos);
  reg.remove_collector(id);
  page = reg.prometheus_text();
  EXPECT_EQ(page.find("usne_test_collected_total"), std::string::npos);
  // Removing a stale id is a no-op, not a crash.
  reg.remove_collector(id);
}

TEST(ObsMetrics, ResetValuesZeroesSeriesButKeepsCollectors) {
  Registry reg;
  reg.counter("usne_test_r_total").add(9);
  reg.gauge("usne_test_r_depth").set(4);
  reg.histogram("usne_test_r_us").record(100);
  const std::size_t id = reg.add_collector([] {
    return std::vector<Sample>{{"usne_test_r_external_total", 1, true}};
  });
  reg.reset_values();
  EXPECT_EQ(reg.counter("usne_test_r_total").value(), 0);
  EXPECT_EQ(reg.gauge("usne_test_r_depth").value(), 0);
  EXPECT_EQ(reg.histogram("usne_test_r_us").count(), 0);
  EXPECT_NE(reg.prometheus_text().find("usne_test_r_external_total 1"),
            std::string::npos);
  reg.remove_collector(id);
}

// --- metrics: exposition ------------------------------------------------------

TEST(ObsMetrics, PrometheusRoundTripReconciles) {
  Registry reg;
  reg.counter("usne_test_hits_total").add(123);
  reg.gauge("usne_test_queue_depth").set(-5);
  LatencyHistogram& h = reg.histogram("usne_test_svc_us");
  const std::vector<std::uint64_t> values = {1, 1, 7, 100, 100, 100, 90000};
  std::uint64_t expect_sum = 0;
  for (const std::uint64_t v : values) {
    h.record(v);
    expect_sum += v;
  }

  const std::string page = reg.prometheus_text();
  // TYPE lines present and correctly typed.
  EXPECT_NE(page.find("# TYPE usne_test_hits_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE usne_test_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE usne_test_svc_us histogram"),
            std::string::npos);

  double count = -1;
  double sum = -1;
  double inf_bucket = -1;
  double prev_bucket = 0;
  bool scalar_hits = false;
  bool scalar_depth = false;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    const double value = std::stod(line.substr(sp + 1));
    if (name == "usne_test_hits_total") {
      EXPECT_EQ(value, 123);
      scalar_hits = true;
    } else if (name == "usne_test_queue_depth") {
      EXPECT_EQ(value, -5);
      scalar_depth = true;
    } else if (name == "usne_test_svc_us_count") {
      count = value;
    } else if (name == "usne_test_svc_us_sum") {
      sum = value;
    } else if (name.rfind("usne_test_svc_us_bucket", 0) == 0) {
      // Cumulative: each bucket must be >= the previous one.
      EXPECT_GE(value, prev_bucket) << line;
      prev_bucket = value;
      if (name.find("le=\"+Inf\"") != std::string::npos) inf_bucket = value;
    }
  }
  EXPECT_TRUE(scalar_hits);
  EXPECT_TRUE(scalar_depth);
  EXPECT_EQ(count, static_cast<double>(values.size()));
  EXPECT_EQ(sum, static_cast<double>(expect_sum));
  // The +Inf bucket is the total count — the histogram reconciles.
  EXPECT_EQ(inf_bucket, count);
}

TEST(ObsMetrics, PrometheusOutputIsSortedAndDeterministic) {
  Registry reg;
  reg.counter("usne_test_z_total").add(1);
  reg.counter("usne_test_a_total").add(2);
  reg.gauge("usne_test_m_depth").set(3);
  const std::string page = reg.prometheus_text();
  EXPECT_LT(page.find("usne_test_a_total"), page.find("usne_test_m_depth"));
  EXPECT_LT(page.find("usne_test_m_depth"), page.find("usne_test_z_total"));
  // Two scrapes of the same state are byte-identical.
  EXPECT_EQ(page, reg.prometheus_text());
}

TEST(ObsMetrics, JsonExportShape) {
  Registry reg;
  reg.counter("usne_test_j_total").add(11);
  reg.gauge("usne_test_j_depth").set(2);
  reg.histogram("usne_test_j_us").record(50);
  const std::string j = reg.json();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"usne_test_j_total\": 11"), std::string::npos);
  EXPECT_NE(j.find("\"usne_test_j_depth\": 2"), std::string::npos);
  EXPECT_NE(j.find("\"usne_test_j_us\""), std::string::npos);
  EXPECT_EQ(j, reg.json());
}

TEST(ObsMetrics, ConcurrentRecordWhileScraping) {
  Registry reg;
  Counter& c = reg.counter("usne_test_scrape_total");
  LatencyHistogram& h = reg.histogram("usne_test_scrape_us");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        c.add(1);
        h.record(static_cast<std::uint64_t>(i % 1000) + 1);
      }
    });
  }
  // Scrape while writers run: must be safe (racy-but-consistent snapshot).
  for (int s = 0; s < 20; ++s) {
    const std::string page = reg.prometheus_text();
    EXPECT_NE(page.find("usne_test_scrape_total"), std::string::npos);
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), 4 * 5000);
  EXPECT_EQ(h.count(), 4 * 5000);
}

TEST(ObsMetrics, GlobalRegistryFreeFunctions) {
  // The free functions resolve into the process-global registry; handles
  // are stable so the series survives for the life of the test binary.
  Counter& c = obs::counter("usne_test_global_total");
  const std::int64_t before = c.value();
  c.add(3);
  EXPECT_EQ(obs::counter("usne_test_global_total").value(), before + 3);
  EXPECT_NE(
      Registry::global().prometheus_text().find("usne_test_global_total"),
      std::string::npos);
}

// --- tracing -----------------------------------------------------------------

using test::count_of;

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace_set_enabled(false);
    obs::trace_reset();
  }
  void TearDown() override {
    obs::trace_set_enabled(false);
    obs::trace_reset();
    obs::trace_set_ring_capacity(16384);
  }
};

TEST_F(ObsTrace, DisabledRecordsNothing) {
  const std::size_t before = obs::trace_retained_events();
  obs::trace_begin("test.off");
  obs::trace_end("test.off");
  obs::trace_instant("test.off");
  { USNE_TRACE_SPAN("test.off_span"); }
  USNE_TRACE_INSTANT("test.off_instant");
  EXPECT_EQ(obs::trace_retained_events(), before);
}

TEST_F(ObsTrace, NestedSpansDumpBalanced) {
  obs::trace_set_enabled(true);
  {
    USNE_TRACE_SPAN("test.outer");
    {
      USNE_TRACE_SPAN("test.inner");
      USNE_TRACE_INSTANT("test.tick");
    }
  }
  obs::trace_set_enabled(false);
  const std::string json = obs::trace_dump_chrome_json();
  EXPECT_EQ(count_of(json, "\"test.outer\""), 2u);  // B + E
  EXPECT_EQ(count_of(json, "\"test.inner\""), 2u);
  EXPECT_EQ(count_of(json, "\"test.tick\""), 1u);
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\": \"E\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\": \"i\""), 1u);
  // Chrome trace-event document shape.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(ObsTrace, MidSpanDisableStillCloses) {
  obs::trace_set_enabled(true);
  {
    USNE_TRACE_SPAN("test.straddle");
    // Disable while the span is open: the destructor must still record 'E'
    // (trace_end_always) so the dump stays balanced.
    obs::trace_set_enabled(false);
  }
  const std::string json = obs::trace_dump_chrome_json();
  EXPECT_EQ(count_of(json, "\"test.straddle\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), 1u);
  EXPECT_EQ(count_of(json, "\"ph\": \"E\""), 1u);
}

TEST_F(ObsTrace, RingWrapsNewestBiased) {
  // Small capacity applies to rings created after the call: record from a
  // fresh thread so its ring is born small.
  constexpr std::size_t kCap = 64;
  constexpr int kEvents = 200;
  obs::trace_set_ring_capacity(kCap);
  obs::trace_set_enabled(true);
  const std::int64_t dropped_before = obs::trace_dropped_events();
  std::thread writer([] {
    for (int i = 0; i < kEvents; ++i) obs::trace_instant("test.wrap");
  });
  writer.join();
  obs::trace_set_enabled(false);
  EXPECT_LE(obs::trace_retained_events(), kCap);
  EXPECT_GE(obs::trace_dropped_events() - dropped_before,
            static_cast<std::int64_t>(kEvents - kCap));
  const std::string json = obs::trace_dump_chrome_json();
  EXPECT_EQ(count_of(json, "\"test.wrap\""), kCap);
}

TEST_F(ObsTrace, ConcurrentThreadsGetDistinctTids) {
  obs::trace_set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        USNE_TRACE_SPAN("test.mt");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  obs::trace_set_enabled(false);
  EXPECT_EQ(obs::trace_retained_events(),
            static_cast<std::size_t>(kThreads) * 200);
  const std::string json = obs::trace_dump_chrome_json();
  EXPECT_EQ(count_of(json, "\"test.mt\""),
            static_cast<std::size_t>(kThreads) * 200);
  // At least kThreads distinct small tids appear (worker rings are
  // per-thread; tid values are assigned sequentially at ring creation).
  std::size_t distinct = 0;
  for (std::uint32_t tid = 0; tid < 64; ++tid) {
    if (json.find("\"tid\": " + std::to_string(tid)) != std::string::npos) {
      ++distinct;
    }
  }
  EXPECT_GE(distinct, static_cast<std::size_t>(kThreads));
}

TEST_F(ObsTrace, ResetClearsRetained) {
  obs::trace_set_enabled(true);
  obs::trace_instant("test.cleared");
  obs::trace_set_enabled(false);
  EXPECT_GE(obs::trace_retained_events(), 1u);
  obs::trace_reset();
  EXPECT_EQ(obs::trace_retained_events(), 0u);
  EXPECT_EQ(obs::trace_dump_chrome_json().find("test.cleared"),
            std::string::npos);
}

}  // namespace
}  // namespace usne
