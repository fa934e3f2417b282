// Tests for the network serving subsystem (src/net/): wire-protocol framing
// (pure byte-buffer tests — no socket, no engine), and loopback integration
// against a real net::Server — round-trips, malformed-frame rejection,
// admission control (BUSY), graceful live reload, concurrent clients, idle
// harvesting, and the kDaemon request-conservation ledger.
//
// Built with -DUSNE_SAN=thread this binary is part of the TSan gate (ctest
// label "tsan"): the concurrent-clients and reload-mid-stream tests drive
// the I/O thread, workers and reloader simultaneously.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"
#include "util/invariant.hpp"

namespace usne {
namespace {

using net::Client;
using net::DecodeStatus;
using net::ErrorCode;
using net::Frame;
using net::MsgType;
using net::RpcError;
using net::Server;
using net::ServerOptions;
using net::ServerStats;
using serve::Query;
using serve::QueryEngine;
using serve::ServeOptions;

// --- protocol: pure byte-buffer tests ---------------------------------------

TEST(Protocol, FrameRoundTrip) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload = net::encode_pair_request(3, 200);
  net::append_frame(wire, MsgType::kPair, 42, payload, 7);

  std::size_t off = 0;
  Frame f;
  ASSERT_EQ(net::decode_frame(wire, off, f), DecodeStatus::kFrame);
  EXPECT_EQ(off, wire.size());
  EXPECT_EQ(f.type, MsgType::kPair);
  EXPECT_EQ(f.flags, 7);
  EXPECT_EQ(f.request_id, 42u);
  Vertex u = 0;
  Vertex v = 0;
  ASSERT_TRUE(net::parse_pair_request(f.payload, u, v));
  EXPECT_EQ(u, 3);
  EXPECT_EQ(v, 200);
}

TEST(Protocol, EveryTruncationPrefixNeedsMore) {
  std::vector<std::uint8_t> wire;
  net::append_frame(wire, MsgType::kPair, 9, net::encode_pair_request(1, 2));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::size_t off = 0;
    Frame f;
    const std::vector<std::uint8_t> prefix(wire.begin(),
                                           wire.begin() +
                                               static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(net::decode_frame(prefix, off, f), DecodeStatus::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(off, 0u);
  }
}

TEST(Protocol, TwoFramesDecodeBackToBack) {
  std::vector<std::uint8_t> wire;
  net::append_frame(wire, MsgType::kPing, 1, {});
  net::append_frame(wire, MsgType::kStats, 2, {});
  std::size_t off = 0;
  Frame f;
  ASSERT_EQ(net::decode_frame(wire, off, f), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, MsgType::kPing);
  ASSERT_EQ(net::decode_frame(wire, off, f), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, MsgType::kStats);
  EXPECT_EQ(off, wire.size());
  EXPECT_EQ(net::decode_frame(wire, off, f), DecodeStatus::kNeedMore);
}

TEST(Protocol, RejectsBadMagicVersionTypeChecksumOversized) {
  std::vector<std::uint8_t> wire;
  net::append_frame(wire, MsgType::kPing, 1, net::encode_pair_request(1, 2));
  std::size_t off = 0;
  Frame f;

  auto corrupted = [&wire](std::size_t index, std::uint8_t value) {
    std::vector<std::uint8_t> bad = wire;
    bad[index] = value;
    return bad;
  };

  off = 0;
  EXPECT_EQ(net::decode_frame(corrupted(0, 0x00), off, f),
            DecodeStatus::kBadMagic);
  off = 0;
  EXPECT_EQ(net::decode_frame(corrupted(4, 99), off, f),
            DecodeStatus::kBadVersion);
  off = 0;
  EXPECT_EQ(net::decode_frame(corrupted(5, 0x7F), off, f),
            DecodeStatus::kBadType);
  // Flip one payload byte: header checksum no longer matches.
  off = 0;
  EXPECT_EQ(net::decode_frame(corrupted(net::kHeaderBytes, 0xFF), off, f),
            DecodeStatus::kBadChecksum);
  // Declare a payload over the 1 MiB cap (offset 8..11 = payload_len LE).
  std::vector<std::uint8_t> oversized = wire;
  oversized[8] = 0x01;
  oversized[9] = 0x00;
  oversized[10] = 0x10;  // 0x100001 = 1 MiB + 1
  oversized[11] = 0x00;
  off = 0;
  EXPECT_EQ(net::decode_frame(oversized, off, f), DecodeStatus::kOversized);
}

TEST(Protocol, TypedPayloadRoundTripsAndRejectsMalformed) {
  Vertex s = -1;
  ASSERT_TRUE(net::parse_single_source_request(
      net::encode_single_source_request(77), s));
  EXPECT_EQ(s, 77);
  EXPECT_FALSE(net::parse_single_source_request(
      std::vector<std::uint8_t>(3, 0), s));

  const std::vector<Query> queries = {
      {5, 9, false}, {0, 0, true}, {123, 4, false}};
  std::vector<Query> parsed;
  ASSERT_TRUE(net::parse_batch_request(net::encode_batch_request(queries),
                                       parsed));
  EXPECT_EQ(parsed, queries);

  // Truncated batch, count lying about the item count, bad `all` byte.
  std::vector<std::uint8_t> enc = net::encode_batch_request(queries);
  enc.pop_back();
  EXPECT_FALSE(net::parse_batch_request(enc, parsed));
  enc = net::encode_batch_request(queries);
  enc[0] = 200;  // count says 200, bytes hold 3
  EXPECT_FALSE(net::parse_batch_request(enc, parsed));
  enc = net::encode_batch_request(queries);
  enc[4] = 2;  // `all` must be 0 or 1
  EXPECT_FALSE(net::parse_batch_request(enc, parsed));

  const std::vector<Dist> dist = {0, 7, kInfDist, 123456789012345LL};
  std::vector<Dist> dist_parsed;
  ASSERT_TRUE(net::parse_dist_vector_reply(
      net::encode_dist_vector_reply(dist), dist_parsed));
  EXPECT_EQ(dist_parsed, dist);

  ErrorCode code = ErrorCode::kNone;
  std::string message;
  ASSERT_TRUE(net::parse_error(
      net::encode_error(ErrorCode::kBusy, "queue full"), code, message));
  EXPECT_EQ(code, ErrorCode::kBusy);
  EXPECT_EQ(message, "queue full");
  EXPECT_FALSE(net::parse_error(std::vector<std::uint8_t>(1, 0), code,
                                message));
}

// --- loopback integration ----------------------------------------------------

BuildOutput build_emulator(const Graph& g, int kappa = 6) {
  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params = {kappa, 0.25, 0.3, false};
  return build(g, spec);
}

std::shared_ptr<QueryEngine> make_engine(Vertex n = 256,
                                         ServeOptions options = {}) {
  const Graph g = gen_family("er", n, 7);
  return std::make_shared<QueryEngine>(build_emulator(g), options);
}

// `count` frames of one type in one buffer. Sent with one send_raw, they
// reach the server in one read, so admission decides all of them before any
// reply is routed: a deterministic BUSY pattern with no timer. Only queued
// work is admitted: SINGLE_SOURCE frames always queue, while a structural
// engine's PAIR frames are answered inline by the I/O thread.
std::vector<std::uint8_t> frames(MsgType type, std::uint64_t count,
                                 const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= count; ++id) {
    net::append_frame(wire, type, id, payload);
  }
  return wire;
}

std::vector<std::uint8_t> single_source_frames(std::uint64_t count) {
  return frames(MsgType::kSingleSource, count,
                net::encode_single_source_request(1));
}

std::vector<std::uint8_t> pair_frames(std::uint64_t count) {
  return frames(MsgType::kPair, count, net::encode_pair_request(1, 2));
}

std::vector<Query> make_workload(Vertex n, std::int64_t count,
                                 std::uint64_t seed = 42) {
  serve::WorkloadSpec spec;
  spec.kind = serve::WorkloadKind::kZipf;
  spec.num_queries = count;
  spec.seed = seed;
  return serve::generate_workload(n, spec);
}

TEST(NetServer, PingPairSingleSourceBatchMatchEngine) {
  auto engine = make_engine(256);
  ServerOptions options;
  options.workers = 2;
  Server server(engine, options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());

  const std::vector<std::uint8_t> token = {1, 2, 3, 4};
  EXPECT_EQ(client.ping(token), token);

  EXPECT_EQ(client.query_pair(3, 200), engine->query(3, 200));
  EXPECT_EQ(client.query_pair(0, 0), 0);

  const serve::SsspResult direct = engine->query_all(5);
  EXPECT_EQ(client.query_all_folded(5), serve::checksum_fold(*direct));
  EXPECT_EQ(client.query_all(5), *direct);

  const std::vector<Query> queries = make_workload(256, 300);
  const std::vector<Dist> wire = client.query_batch(queries);
  const serve::BatchResult reference = engine->serve(queries, 1);
  EXPECT_EQ(wire, reference.answers);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted_requests, s.answered_requests);
  EXPECT_EQ(s.protocol_errors, 0);
}

TEST(NetServer, MalformedFramesNeverReachTheEngine) {
  auto engine = make_engine(64);
  Server server(engine, ServerOptions{});
  server.start();

  // Garbage bytes: the daemon must close the stream and count a protocol
  // error without any request entering the ledger (or the engine).
  Client client;
  client.connect("127.0.0.1", server.port());
  const std::vector<std::uint8_t> garbage(64, 0xAB);
  client.send_raw(garbage);
  Frame f;
  EXPECT_FALSE(client.recv_frame(f));  // EOF: server closed on us

  // A corrupted-checksum frame gets the same treatment.
  Client client2;
  client2.connect("127.0.0.1", server.port());
  std::vector<std::uint8_t> wire;
  net::append_frame(wire, MsgType::kPair, 1, net::encode_pair_request(1, 2));
  wire[net::kHeaderBytes] ^= 0xFF;
  client2.send_raw(wire);
  EXPECT_FALSE(client2.recv_frame(f));

  // A well-framed *reply* type is not a request: answered with kError,
  // connection stays open.
  Client client3;
  client3.connect("127.0.0.1", server.port());
  client3.send_frame(MsgType::kPong, 5, {});
  ASSERT_TRUE(client3.recv_frame(f));
  EXPECT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(f.request_id, 5u);

  // A well-framed pair request with an out-of-range vertex is rejected
  // before the engine sees it.
  EXPECT_THROW(client3.query_pair(0, 64), RpcError);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.protocol_errors, 2);
  EXPECT_EQ(s.rejected_error, 2);
  EXPECT_EQ(s.answered_requests, 0);
  EXPECT_EQ(engine->cache_stats().sssp_runs, 0);
  EXPECT_EQ(engine->cache_stats().structural, 0);
}

TEST(NetServer, BusyUnderTinyAdmissionQueue) {
  auto engine = make_engine(128);
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  Server server(engine, options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_raw(single_source_frames(8));
  int answered = 0;
  int busy = 0;
  for (int i = 0; i < 8; ++i) {
    Frame f;
    ASSERT_TRUE(client.recv_frame(f));
    if (f.type == MsgType::kSingleSourceReply) {
      ++answered;
    } else {
      ASSERT_EQ(f.type, MsgType::kBusy);
      ++busy;
    }
  }
  EXPECT_EQ(answered, 1);
  EXPECT_EQ(busy, 7);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted_requests, 8);
  EXPECT_EQ(s.answered_requests, 1);
  EXPECT_EQ(s.rejected_busy, 7);
}

TEST(NetServer, PerConnectionInFlightCap) {
  auto engine = make_engine(128);
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1024;  // global bound out of the way
  options.max_inflight_per_conn = 2;
  Server server(engine, options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_raw(single_source_frames(8));
  int answered = 0;
  int busy = 0;
  for (int i = 0; i < 8; ++i) {
    Frame f;
    ASSERT_TRUE(client.recv_frame(f));
    if (f.type == MsgType::kSingleSourceReply) ++answered;
    if (f.type == MsgType::kBusy) ++busy;
  }
  EXPECT_EQ(answered, 2);
  EXPECT_EQ(busy, 6);
  server.stop();
}

TEST(NetServer, StructuralFramesAreAnsweredInlineAndSkipAdmission) {
  auto engine = make_engine(128);
  ASSERT_TRUE(engine->kernel().structural);
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  Server server(engine, options);
  server.start();

  // Eight PAIR frames and a point-only BATCH in one read: all answered by
  // the I/O thread, none queued, so the one-slot queue never says BUSY.
  Client client;
  client.connect("127.0.0.1", server.port());
  std::vector<std::uint8_t> wire = pair_frames(8);
  const std::vector<Query> points = {{1, 2, false}, {3, 4, false}};
  const std::vector<Query> with_all = {{1, 2, false}, {3, 0, true}};
  net::append_frame(wire, MsgType::kBatch, 9, net::encode_batch_request(points));
  // Two BATCH frames holding a single-source query queue like SINGLE_SOURCE:
  // the first takes the slot, the second is BUSY.
  net::append_frame(wire, MsgType::kBatch, 10,
                    net::encode_batch_request(with_all));
  net::append_frame(wire, MsgType::kBatch, 11,
                    net::encode_batch_request(with_all));
  client.send_raw(wire);
  int pairs = 0;
  int batches = 0;
  int busy = 0;
  for (int i = 0; i < 11; ++i) {
    Frame f;
    ASSERT_TRUE(client.recv_frame(f));
    if (f.type == MsgType::kPairReply) ++pairs;
    if (f.type == MsgType::kBatchReply) ++batches;
    if (f.type == MsgType::kBusy) {
      ++busy;
      EXPECT_EQ(f.request_id, 11u);
    }
  }
  EXPECT_EQ(pairs, 8);
  EXPECT_EQ(batches, 2);
  EXPECT_EQ(busy, 1);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted_requests, 11);
  EXPECT_EQ(s.answered_requests, 10);
  EXPECT_EQ(s.rejected_busy, 1);
  EXPECT_EQ(engine->cache_stats().structural, 8 + 2 + 1);
}

TEST(NetServer, DialEnginePairFramesQueue) {
  // H = G on a connected G(128, 512): its core is too large for the
  // structural table, so PAIR frames go through admission to a worker.
  auto engine = std::make_shared<QueryEngine>(
      WeightedGraph::unit_weights(gen_connected_gnm(128, 512, 7)), 1.0, 0);
  ASSERT_FALSE(engine->kernel().structural);
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  Server server(engine, options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_raw(pair_frames(8));
  int answered = 0;
  int busy = 0;
  for (int i = 0; i < 8; ++i) {
    Frame f;
    ASSERT_TRUE(client.recv_frame(f));
    if (f.type == MsgType::kPairReply) ++answered;
    if (f.type == MsgType::kBusy) ++busy;
  }
  EXPECT_EQ(answered, 1);
  EXPECT_EQ(busy, 7);
  server.stop();
}

TEST(NetServer, GracefulReloadMidStreamKeepsAnswersIdentical) {
  const Graph g = gen_family("er", 256, 7);
  auto make = [&g] {
    return std::make_shared<QueryEngine>(build_emulator(g), ServeOptions{});
  };
  auto engine = make();
  ServerOptions options;
  options.workers = 2;
  Server server(engine, options);
  server.start();

  const std::vector<Query> queries = make_workload(256, 2000);
  const serve::BatchResult reference = engine->serve(queries, 1);

  // Stream the workload in small batches while the main thread reloads a
  // freshly built (identical) engine mid-stream. Every batch, whichever
  // engine served it, must answer bit-identically.
  std::atomic<bool> failed{false};
  std::thread streamer([&] {
    Client client;
    client.connect("127.0.0.1", server.port());
    const std::size_t step = 50;
    for (std::size_t i = 0; i < queries.size(); i += step) {
      const std::size_t m = std::min(step, queries.size() - i);
      const std::vector<Dist> got = client.query_batch(
          std::span<const Query>(queries.data() + i, m));
      for (std::size_t k = 0; k < m; ++k) {
        if (got[k] != reference.answers[i + k]) {
          failed.store(true);
          return;
        }
      }
    }
  });
  for (int r = 0; r < 3; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.reload(make());
  }
  streamer.join();
  EXPECT_FALSE(failed.load());

  // Reload to a different vertex count must be refused: queued queries
  // were validated against the old range.
  const Graph small = gen_family("er", 64, 7);
  EXPECT_THROW(server.reload(std::make_shared<QueryEngine>(
                   build_emulator(small), ServeOptions{})),
               std::invalid_argument);
  EXPECT_THROW(server.reload(nullptr), std::invalid_argument);

  server.stop();
  EXPECT_EQ(server.stats().reloads, 3);
}

TEST(NetServer, ConcurrentClientsChecksumEqualAcrossWorkerCounts) {
  const Vertex n = 256;
  auto engine = make_engine(n);
  const std::vector<Query> queries = make_workload(n, 1200);
  const serve::BatchResult reference = engine->serve(queries, 1);

  for (const int workers : {1, 2, 8}) {
    ServerOptions options;
    options.workers = workers;
    Server server(engine, options);
    server.start();

    const int clients = 4;
    const std::size_t per_client = (queries.size() + clients - 1) / clients;
    std::vector<Dist> answers(queries.size(), -1);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const std::size_t lo =
            std::min(queries.size(), static_cast<std::size_t>(c) * per_client);
        const std::size_t hi = std::min(queries.size(), lo + per_client);
        if (lo >= hi) return;
        Client client;
        client.connect("127.0.0.1", server.port());
        const std::size_t step = 64;
        for (std::size_t i = lo; i < hi; i += step) {
          const std::size_t m = std::min(step, hi - i);
          const std::vector<Dist> got = client.query_batch(
              std::span<const Query>(queries.data() + i, m));
          for (std::size_t k = 0; k < m; ++k) answers[i + k] = got[k];
        }
      });
    }
    for (std::thread& t : threads) t.join();
    server.stop();

    std::uint64_t checksum = serve::kChecksumSeed;
    for (const Dist d : answers) {
      checksum = serve::checksum_accumulate(checksum, d);
    }
    EXPECT_EQ(checksum, reference.checksum) << "workers = " << workers;
  }
}

TEST(NetServer, IdleConnectionsAreHarvested) {
  auto engine = make_engine(64);
  ServerOptions options;
  options.idle_timeout_ms = 50;
  Server server(engine, options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  client.ping();
  Frame f;
  EXPECT_FALSE(client.recv_frame(f));  // harvested: orderly EOF

  server.stop();
  EXPECT_GE(server.stats().idle_closed, 1);
}

TEST(NetServer, StatsRequestReportsCountersAndLatency) {
  auto engine = make_engine(128);
  Server server(engine, ServerOptions{});
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  const std::vector<Query> queries = make_workload(128, 200);
  client.query_batch(queries);
  const std::string json = client.stats_json();

  // The STATS request counts itself (accepted and answered *before* the
  // snapshot, so every report satisfies the conservation law): 1 batch + 1
  // stats = 2/2.
  for (const char* field :
       {"\"accepted_requests\": 2", "\"answered_requests\": 2",
        "\"cache\": {", "\"cache_interval\": {", "\"latency\": {",
        "\"p99_us\":", "\"queue_depth\": 0", "\"rejected_busy\": 0",
        "\"workers\":"}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << "missing " << field << " in " << json;
  }
  // The interval view resets: a second STATS sees an empty interval.
  const std::string second = client.stats_json();
  EXPECT_NE(second.find("\"cache_interval\": {\"coalesced\": 0, \"entries\": "),
            std::string::npos);
  server.stop();
}

TEST(NetServer, ShutdownLedgerConservesRequests) {
  inv::ScopedAuditsEnabled audits(true);
  inv::reset_counters();

  auto engine = make_engine(128);
  ServerOptions options;
  options.workers = 2;
  options.max_queue = 4;  // force some BUSY traffic into the ledger
  Server server(engine, options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_raw(single_source_frames(64));
  for (int i = 0; i < 64; ++i) {
    Frame f;
    ASSERT_TRUE(client.recv_frame(f));
  }
  server.stop();  // runs the kDaemon conservation checks

  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted_requests,
            s.answered_requests + s.rejected_busy + s.rejected_error);
  EXPECT_GT(s.rejected_busy, 0);
  EXPECT_EQ(s.in_flight, 0);
  EXPECT_EQ(s.queue_depth, 0);

  bool found = false;
  for (const inv::CategoryCounters& c : inv::counters()) {
    if (std::string(c.name) == "daemon") {
      found = true;
      EXPECT_GT(c.checked, 0);
      EXPECT_EQ(c.fired, 0);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace usne
