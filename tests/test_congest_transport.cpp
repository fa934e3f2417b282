// Transport-layer (DeliveryModel) suite: the Ideal model is byte-identical
// to the classic synchronous engine across every NodeProgram family; the
// degenerate Faulty (drop_p = dup_p = 0) and Async (latency_max = 1)
// configurations collapse to Ideal exactly; Faulty/Async are deterministic
// for a fixed seed at 1/2/8 execution threads; injected events are counted;
// the Scheduler drains in-flight traffic at program end; detect_congest's
// output under every transport and thread count is pinned to recorded
// digests; and the build API rejects non-ideal transports on algorithms
// that do not run on the simulator.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "api/build.hpp"
#include "congest/bfs_forest.hpp"
#include "congest/detect.hpp"
#include "congest/engine.hpp"
#include "congest/flood.hpp"
#include "congest/network.hpp"
#include "congest/ruling_set.hpp"
#include "congest/transport.hpp"
#include "graph/generators.hpp"
#include "serve/query_engine.hpp"

namespace usne {
namespace {

using congest::Message;
using congest::Network;
using congest::NetworkStats;
using congest::NodeProgram;
using congest::Outbox;
using congest::Received;
using congest::Scheduler;
using congest::TransportCounters;
using congest::TransportModel;
using congest::TransportSpec;

constexpr int kThreadCounts[] = {1, 2, 8};

TransportSpec faulty_spec(double drop_p, double dup_p,
                          std::uint64_t seed = 7) {
  TransportSpec spec;
  spec.model = TransportModel::kFaulty;
  spec.seed = seed;
  spec.drop_p = drop_p;
  spec.dup_p = dup_p;
  return spec;
}

TransportSpec async_spec(std::int64_t latency_max, std::uint64_t seed = 7) {
  TransportSpec spec;
  spec.model = TransportModel::kAsync;
  spec.seed = seed;
  spec.latency_max = latency_max;
  return spec;
}

/// The E4 smoke build (er n = 128 settings) of a CONGEST algorithm.
BuildSpec congest_spec(const char* algorithm, const TransportSpec& transport = {},
                       int threads = 1) {
  return {.algorithm = algorithm,
          .params = {.kappa = 4, .eps = 0.4, .rho = 0.49},
          .exec = {.num_threads = threads,
                   .keep_audit_data = false,
                   .transport = transport}};
}

void expect_same_stats(const NetworkStats& expected, const NetworkStats& got) {
  EXPECT_EQ(expected.rounds, got.rounds);
  EXPECT_EQ(expected.messages, got.messages);
  EXPECT_EQ(expected.words, got.words);
}

// --- spec validation / model metadata ---------------------------------------

TEST(TransportSpecValidation, RejectsOutOfRangeKnobs) {
  EXPECT_THROW(faulty_spec(-0.1, 0).validate(), std::invalid_argument);
  EXPECT_THROW(faulty_spec(1.1, 0).validate(), std::invalid_argument);
  EXPECT_THROW(faulty_spec(0, -0.1).validate(), std::invalid_argument);
  EXPECT_THROW(faulty_spec(0, 1.1).validate(), std::invalid_argument);
  EXPECT_THROW(async_spec(0).validate(), std::invalid_argument);
  EXPECT_THROW(async_spec(-3).validate(), std::invalid_argument);
  EXPECT_NO_THROW(faulty_spec(1.0, 1.0).validate());
  EXPECT_NO_THROW(async_spec(1).validate());
}

TEST(TransportSpecValidation, ModelNamesRoundTrip) {
  for (const TransportModel m : {TransportModel::kIdeal,
                                 TransportModel::kFaulty,
                                 TransportModel::kAsync}) {
    EXPECT_EQ(congest::parse_transport_model(congest::transport_model_name(m)),
              m);
  }
  EXPECT_THROW(congest::parse_transport_model("lossy"), std::invalid_argument);
}

TEST(TransportConfig, RejectsSwapWhileTrafficPending) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(0, 1, Message::of(1));
  EXPECT_THROW(net.configure_transport(faulty_spec(0.5, 0)), std::logic_error);
  net.advance_round();
  EXPECT_NO_THROW(net.configure_transport(faulty_spec(0.5, 0)));
}

// --- network-level injected events ------------------------------------------

TEST(FaultyTransport, DropAllDeliversNothingButMetersSends) {
  const Graph g = gen_gnm(50, 200, 3);
  Network net(g);
  net.configure_transport(faulty_spec(1.0, 0));
  std::int64_t sent = 0;
  for (Vertex v = 0; v < 50; ++v) {
    net.broadcast(v, Message::of(v));
    sent += static_cast<std::int64_t>(g.neighbors(v).size());
  }
  net.advance_round();
  EXPECT_TRUE(net.delivered_to().empty());
  // Sends are still the algorithm's traffic: the meter counts them even
  // though the transport ate every one.
  EXPECT_EQ(net.stats().messages, sent);
  EXPECT_EQ(net.transport().counters().dropped, sent);
  EXPECT_EQ(net.transport().counters().duplicated, 0);
}

TEST(FaultyTransport, DuplicateAllDoublesEveryInbox) {
  const Graph g = gen_gnm(50, 200, 3);
  Network net(g);
  net.configure_transport(faulty_spec(0.0, 1.0));
  std::int64_t sent = 0;
  for (Vertex v = 0; v < 50; ++v) {
    net.broadcast(v, Message::of(v));
    sent += static_cast<std::int64_t>(g.neighbors(v).size());
  }
  net.advance_round();
  std::int64_t received = 0;
  for (const Vertex v : net.delivered_to()) {
    const auto box = net.inbox(v);
    received += static_cast<std::int64_t>(box.size());
    // Stable per-run order: each sender appears exactly twice, adjacently.
    for (std::size_t i = 1; i < box.size(); i += 2) {
      EXPECT_EQ(box[i].from, box[i - 1].from);
    }
  }
  EXPECT_EQ(received, 2 * sent);
  EXPECT_EQ(net.transport().counters().duplicated, sent);
}

TEST(AsyncTransport, MessagesArriveWithinLatencyBound) {
  const Graph g = gen_path(2);
  const std::int64_t latency_max = 5;
  // Try several seeds so at least one draws latency > 1 — and every
  // message must land within [1, latency_max] rounds of staging.
  bool saw_delay = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Network net(g);
    net.configure_transport(async_spec(latency_max, seed));
    net.send(0, 1, Message::of(42));
    std::int64_t arrival = -1;
    for (std::int64_t r = 1; r <= latency_max; ++r) {
      net.advance_round();
      if (!net.delivered_to().empty()) {
        arrival = r;
        break;
      }
      EXPECT_EQ(net.in_flight(), 1);
    }
    ASSERT_GE(arrival, 1) << "seed=" << seed;
    ASSERT_LE(arrival, latency_max) << "seed=" << seed;
    EXPECT_EQ(net.in_flight(), 0);
    if (arrival > 1) {
      saw_delay = true;
      EXPECT_EQ(net.transport().counters().delayed, 1);
      EXPECT_EQ(net.transport().counters().delay_rounds, arrival - 1);
    }
  }
  EXPECT_TRUE(saw_delay);
}

// --- scheduler quiescence under non-ideal transports ------------------------

/// Broadcasts once in init and immediately reports done: under Ideal this
/// is the flush-or-throw violation; under Async the Scheduler must drain
/// the in-flight messages instead, leaving the network clean.
class FireAndForgetProgram final : public NodeProgram {
 public:
  void init(Outbox& out) override { out.broadcast(0, Message::of(1)); }
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t) const override { return true; }
};

/// Counts deliveries; proves no cross-program leak.
class CountingProgram final : public NodeProgram {
 public:
  explicit CountingProgram(std::int64_t rounds) : rounds_(rounds) {}
  void init(Outbox&) override {}
  void on_round(std::int64_t, Vertex, std::span<const Received> inbox,
                Outbox&) override {
    received_ += static_cast<std::int64_t>(inbox.size());
  }
  bool done(std::int64_t next_round) const override {
    return next_round >= rounds_;
  }
  std::int64_t received() const noexcept { return received_; }

 private:
  std::int64_t rounds_;
  std::int64_t received_ = 0;
};

TEST(SchedulerQuiescence, DrainsInFlightTrafficUnderAsync) {
  const Graph g = gen_path(4);
  Network net(g);
  net.configure_transport(async_spec(6));
  Scheduler scheduler(net);

  FireAndForgetProgram fire;
  EXPECT_NO_THROW(scheduler.run(fire));  // would throw under Ideal
  EXPECT_EQ(net.pending_messages() + net.in_flight(), 0);

  CountingProgram after(8);
  scheduler.run(after);
  EXPECT_EQ(after.received(), 0);  // nothing leaked across programs
}

TEST(SchedulerQuiescence, IdealStillThrowsOnLeakyPrograms) {
  const Graph g = gen_path(4);
  Network net(g);
  net.configure_transport(TransportSpec{});  // explicit ideal
  FireAndForgetProgram fire;
  Scheduler scheduler(net);
  EXPECT_THROW(scheduler.run(fire), congest::CongestViolation);
}

// --- ideal parity: every NodeProgram family, explicit vs default ------------

TEST(IdealParity, PrimitivesMatchLegacyPathExactly) {
  const Graph g = gen_gnm(300, 1200, 9);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 300; v += 7) sources.push_back(v);

  // Legacy path: a Network with its default (ideal) model, never
  // reconfigured. Explicit path: configure_transport(ideal spec).
  Network legacy(g);
  Network explicit_ideal(g);
  explicit_ideal.configure_transport(TransportSpec{});

  const auto f1 = congest::flood_presence(legacy, {0, 7, 123}, 6);
  const auto f2 = congest::flood_presence(explicit_ideal, {0, 7, 123}, 6);
  EXPECT_EQ(f1.dist, f2.dist);

  const auto b1 = congest::build_bfs_forest(legacy, {0, 50, 133}, 5);
  const auto b2 = congest::build_bfs_forest(explicit_ideal, {0, 50, 133}, 5);
  EXPECT_EQ(b1.root, b2.root);
  EXPECT_EQ(b1.depth, b2.depth);
  EXPECT_EQ(b1.parent, b2.parent);

  const auto d1 = congest::detect_congest(legacy, sources, 4, 6);
  const auto d2 = congest::detect_congest(explicit_ideal, sources, 4, 6);
  EXPECT_EQ(d1.rounds_used, d2.rounds_used);
  ASSERT_EQ(d1.hits.size(), d2.hits.size());
  for (std::size_t v = 0; v < d1.hits.size(); ++v) {
    ASSERT_EQ(d1.hits[v].size(), d2.hits[v].size());
    for (std::size_t i = 0; i < d1.hits[v].size(); ++i) {
      EXPECT_EQ(d1.hits[v][i].source, d2.hits[v][i].source);
      EXPECT_EQ(d1.hits[v][i].dist, d2.hits[v][i].dist);
      EXPECT_EQ(d1.hits[v][i].pred, d2.hits[v][i].pred);
    }
  }

  const auto r1 = congest::compute_ruling_set(legacy, sources, 2, 4);
  const auto r2 = congest::compute_ruling_set(explicit_ideal, sources, 2, 4);
  EXPECT_EQ(r1.members, r2.members);
  EXPECT_EQ(r1.rounds_used, r2.rounds_used);

  expect_same_stats(legacy.stats(), explicit_ideal.stats());
}

TEST(IdealParity, ConstructionsMatchDefaultTransportExactly) {
  const Graph g = gen_family("er", 128, 2024);

  BuildSpec spec = congest_spec("emulator_congest");
  spec.exec.transport = {};
  const auto e1 = build(g, congest_spec("emulator_congest"));
  const auto e2 = build(g, spec);
  EXPECT_EQ(e1.h().edges(), e2.h().edges());
  EXPECT_EQ(e1.local, e2.local);
  expect_same_stats(e1.net, e2.net);
  EXPECT_EQ(e2.transport.dropped, 0);
  EXPECT_EQ(e2.transport.duplicated, 0);
  EXPECT_EQ(e2.transport.delayed, 0);

  const auto s1 = build(g, congest_spec("spanner_congest"));
  const auto s2 = build(g, congest_spec("spanner_congest", TransportSpec{}));
  EXPECT_EQ(s1.h().edges(), s2.h().edges());
  expect_same_stats(s1.net, s2.net);
}

// --- degenerate configurations collapse to ideal ----------------------------

TEST(DegenerateTransports, ZeroRateFaultyAndUnitLatencyAsyncEqualIdeal) {
  const Graph g = gen_family("er", 128, 2024);

  const auto ideal = build(g, congest_spec("emulator_congest"));
  const auto faulty0 =
      build(g, congest_spec("emulator_congest", faulty_spec(0.0, 0.0)));
  EXPECT_EQ(ideal.h().edges(), faulty0.h().edges());
  EXPECT_EQ(ideal.local, faulty0.local);
  expect_same_stats(ideal.net, faulty0.net);
  EXPECT_EQ(faulty0.transport.dropped, 0);
  EXPECT_EQ(faulty0.transport.duplicated, 0);

  const auto async1 = build(g, congest_spec("emulator_congest", async_spec(1)));
  EXPECT_EQ(ideal.h().edges(), async1.h().edges());
  EXPECT_EQ(ideal.local, async1.local);
  expect_same_stats(ideal.net, async1.net);
  EXPECT_EQ(async1.transport.delayed, 0);

  const auto sideal = build(g, congest_spec("spanner_congest"));
  const auto sfaulty0 =
      build(g, congest_spec("spanner_congest", faulty_spec(0.0, 0.0)));
  const auto sasync1 = build(g, congest_spec("spanner_congest", async_spec(1)));
  EXPECT_EQ(sideal.h().edges(), sfaulty0.h().edges());
  EXPECT_EQ(sideal.h().edges(), sasync1.h().edges());
  expect_same_stats(sideal.net, sfaulty0.net);
  expect_same_stats(sideal.net, sasync1.net);
}

// --- determinism at 1/2/8 threads under non-ideal transports ----------------

TEST(TransportDeterminism, ConstructionsUnderFaultyAndAsyncAcrossThreads) {
  const Graph g = gen_family("er", 128, 2024);
  for (const char* algorithm : {"emulator_congest", "spanner_congest"}) {
    for (const TransportSpec& transport :
         {faulty_spec(0.05, 0.02), async_spec(4)}) {
      BuildOutput expected;
      for (const int threads : kThreadCounts) {
        BuildOutput r = build(g, congest_spec(algorithm, transport, threads));
        if (threads == 1) {
          expected = std::move(r);
          continue;
        }
        SCOPED_TRACE(std::string(algorithm) + " threads=" +
                     std::to_string(threads));
        EXPECT_EQ(expected.h().edges(), r.h().edges());
        EXPECT_EQ(expected.local, r.local);
        expect_same_stats(expected.net, r.net);
        EXPECT_EQ(expected.transport.dropped, r.transport.dropped);
        EXPECT_EQ(expected.transport.duplicated, r.transport.duplicated);
        EXPECT_EQ(expected.transport.delayed, r.transport.delayed);
        EXPECT_EQ(expected.transport.delay_rounds, r.transport.delay_rounds);
      }
    }
  }
}

TEST(TransportDeterminism, SameSeedSameRunTwice) {
  const Graph g = gen_family("er", 128, 2024);
  BuildSpec spec;
  spec.algorithm = "emulator_congest";
  spec.params.kappa = 4;
  spec.params.eps = 0.4;
  spec.params.rho = 0.49;
  spec.exec.keep_audit_data = false;
  spec.exec.transport = faulty_spec(0.1, 0.05, 99);
  const auto a = build(g, spec);
  const auto b = build(g, spec);
  EXPECT_EQ(a.h().edges(), b.h().edges());
  EXPECT_EQ(a.stats, b.stats);

  // A different seed produces a different degraded execution (the injected
  // faults actually depend on the seed).
  spec.exec.transport.seed = 100;
  const auto c = build(g, spec);
  EXPECT_NE(a.stats.at("transport_dropped"), 0);
  EXPECT_NE(a.stats.at("transport_dropped"), c.stats.at("transport_dropped"));
}

// --- parallel counting sort (large-batch scatter) ---------------------------

/// Broadcasts from every vertex each round and folds the inbox into an
/// order-sensitive checksum, so any deviation in delivery order or content
/// between the serial and sharded counting sort shows up immediately. The
/// graph is sized so each round's batch (2m messages) exceeds the parallel
/// scatter threshold, and several rounds run back to back — a regression
/// for the cursor-reset bug the sharded pass once had on its second round.
class ChecksumProgram final : public NodeProgram {
 public:
  ChecksumProgram(Vertex n, std::int64_t rounds) : rounds_(rounds) {
    acc_.assign(static_cast<std::size_t>(n), 1);
  }

  void init(Outbox& out) override {
    for (Vertex v = 0; v < static_cast<Vertex>(acc_.size()); ++v) {
      out.broadcast(v, Message::of(v + 1));
    }
  }

  void on_round(std::int64_t round, Vertex v, std::span<const Received> inbox,
                Outbox& out) override {
    auto& acc = acc_[static_cast<std::size_t>(v)];
    for (const Received& r : inbox) {
      // Mix in unsigned space: the rolling hash overflows by design, and
      // signed overflow is UB (UBSan flags it) while unsigned wraps.
      acc = static_cast<congest::Word>(
          static_cast<std::uint64_t>(acc) * 31 +
          static_cast<std::uint64_t>(r.from) * 7 +
          static_cast<std::uint64_t>(r.msg.words[0]));
    }
    if (round + 1 < rounds_) out.broadcast(v, Message::of(acc));
  }

  bool done(std::int64_t next_round) const override {
    return next_round >= rounds_;
  }

  const std::vector<congest::Word>& acc() const noexcept { return acc_; }

 private:
  std::int64_t rounds_;
  std::vector<congest::Word> acc_;
};

TEST(ParallelScatter, LargeBatchCountingSortMatchesSerial) {
  const Graph g = gen_gnm(800, 6400, 13);  // ~12800 messages per full round
  for (const TransportSpec& transport :
       {TransportSpec{}, faulty_spec(0.05, 0.02), async_spec(3)}) {
    std::vector<congest::Word> expected_acc;
    NetworkStats expected_stats;
    TransportCounters expected_injected;
    for (const int threads : kThreadCounts) {
      Network net(g);
      net.set_execution_threads(threads);
      net.configure_transport(transport);
      ChecksumProgram program(g.num_vertices(), 6);
      Scheduler(net).run(program);
      if (threads == 1) {
        expected_acc = program.acc();
        expected_stats = net.stats();
        expected_injected = net.transport().counters();
        continue;
      }
      EXPECT_EQ(expected_acc, program.acc())
          << congest::transport_model_name(transport.model)
          << " threads=" << threads;
      expect_same_stats(expected_stats, net.stats());
      EXPECT_EQ(expected_injected.dropped,
                net.transport().counters().dropped);
      EXPECT_EQ(expected_injected.duplicated,
                net.transport().counters().duplicated);
      EXPECT_EQ(expected_injected.delayed, net.transport().counters().delayed);
    }
  }
}

// --- detect output pinned across transports and thread counts ---------------

/// FNV-1a over everything detect_congest reports: every vertex's hit list
/// (source, dist, pred), the rounds it used, and the network's counters.
std::uint64_t detect_digest(const congest::DetectResult& r,
                            const NetworkStats& stats) {
  std::uint64_t h = serve::kChecksumSeed;
  for (const std::vector<SourceHit>& list : r.hits) {
    h = serve::checksum_accumulate(h, static_cast<std::int64_t>(list.size()));
    for (const SourceHit& hit : list) {
      h = serve::checksum_accumulate(h, hit.source);
      h = serve::checksum_accumulate(h, hit.dist);
      h = serve::checksum_accumulate(h, hit.pred);
    }
  }
  for (const std::int64_t x :
       {r.rounds_used, stats.rounds, stats.messages, stats.words}) {
    h = serve::checksum_accumulate(h, x);
  }
  return h;
}

/// Which side of the size at which detect switches a vertex's duplicate
/// test from scanning its hit list to a bitset over the sources
/// (list bytes >= bitset bytes) every list must end on.
enum class ListSize { kAnySize, kBelowBitset, kAtLeastBitset };

/// Runs a capped detect_congest under ideal, faulty (drop 0.05, dup 0.02)
/// and async (latency <= 4) delivery at 1/2/8 threads and compares each
/// run with the digest recorded for that transport. The digests were taken
/// from the linear-scan implementation before the bitset duplicate test
/// and the learner-only stride boundary replaced it. Under async, messages
/// arrive in a later stride than they were sent in; a stored distance
/// derived from the stride instead of the message moves the digest.
void expect_detect_pinned(const Graph& g, const std::vector<Vertex>& sources,
                          Dist delta, std::int64_t cap,
                          const std::uint64_t (&want)[3], ListSize size) {
  const std::size_t bitset_bytes = (sources.size() + 63) / 64 * 8;
  const TransportSpec transports[3] = {TransportSpec{},
                                       faulty_spec(0.05, 0.02), async_spec(4)};
  for (std::size_t t = 0; t < 3; ++t) {
    for (const int threads : kThreadCounts) {
      Network net(g);
      net.set_execution_threads(threads);
      net.configure_transport(transports[t]);
      const congest::DetectResult r =
          congest::detect_congest(net, sources, delta, cap);
      EXPECT_EQ(want[t], detect_digest(r, net.stats()))
          << congest::transport_model_name(transports[t].model)
          << " threads=" << threads;
      for (const std::vector<SourceHit>& list : r.hits) {
        const std::size_t bytes = list.size() * sizeof(SourceHit);
        if (size == ListSize::kBelowBitset) {
          ASSERT_LT(bytes, bitset_bytes);
        } else if (size == ListSize::kAtLeastBitset) {
          ASSERT_GE(bytes, bitset_bytes);
        }
      }
    }
  }
}

TEST(DetectPinned, CappedStridesMixedListSizes) {
  const Graph g = gen_gnm(2000, 8000, 41);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += 2) sources.push_back(v);
  expect_detect_pinned(g, sources, 3, 4,
                       {8498066676154062998ULL, 12083984601338779689ULL,
                        6657105269688102593ULL},
                       ListSize::kAnySize);
}

TEST(DetectPinned, EverySourceOneStrideNoListReachesBitset) {
  const Graph g = gen_torus(32, 32);
  std::vector<Vertex> sources(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    sources[static_cast<std::size_t>(v)] = v;
  }
  expect_detect_pinned(g, sources, 1, 5,
                       {14799069394819627237ULL, 709369904565856043ULL,
                        14799069394819627237ULL},
                       ListSize::kBelowBitset);
}

TEST(DetectPinned, FewSourcesEveryListReachesBitset) {
  const Graph g = gen_connected_gnm(300, 1200, 5);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += 5) sources.push_back(v);
  expect_detect_pinned(g, sources, 6, 3,
                       {15233793483097671644ULL, 13893697612505049777ULL,
                        2450894433883091340ULL},
                       ListSize::kAtLeastBitset);
}

// --- build API surface -------------------------------------------------------

TEST(BuildApiTransport, CongestAlgorithmsAdvertiseSupport) {
  for (const std::string& name : algorithms()) {
    EXPECT_EQ(describe(name).supports_transport,
              describe(name).model == "congest")
        << name;
  }
}

TEST(BuildApiTransport, RejectsNonIdealTransportOnCentralizedAlgorithms) {
  const Graph g = gen_family("er", 64, 2024);
  BuildSpec spec;
  spec.algorithm = "emulator_centralized";
  spec.exec.transport = faulty_spec(0.1, 0);
  EXPECT_THROW(build(g, spec), std::invalid_argument);
  spec.exec.transport = TransportSpec{};  // ideal is fine everywhere
  EXPECT_NO_THROW(build(g, spec));
}

TEST(BuildApiTransport, RejectsInvalidSpecBeforeRunning) {
  const Graph g = gen_family("er", 64, 2024);
  BuildSpec spec;
  spec.algorithm = "emulator_congest";
  spec.exec.transport = faulty_spec(2.0, 0);
  EXPECT_THROW(build(g, spec), std::invalid_argument);
}

TEST(BuildApiTransport, StatsExposeInjectedCountersOnlyWhenNonIdeal) {
  const Graph g = gen_family("er", 128, 2024);
  BuildSpec spec;
  spec.algorithm = "spanner_congest";
  spec.params.eps = 0.4;
  spec.params.rho = 0.49;
  spec.exec.keep_audit_data = false;
  const auto ideal = build(g, spec);
  EXPECT_EQ(ideal.stats.count("transport_dropped"), 0u);

  spec.exec.transport = faulty_spec(0.05, 0.02);
  const auto faulty = build(g, spec);
  EXPECT_EQ(faulty.stats.count("transport_dropped"), 1u);
  EXPECT_EQ(faulty.stats.count("transport_duplicated"), 1u);
  EXPECT_EQ(faulty.stats.count("transport_delayed"), 1u);
  EXPECT_GT(faulty.stats.at("transport_dropped"), 0);
}

}  // namespace
}  // namespace usne
