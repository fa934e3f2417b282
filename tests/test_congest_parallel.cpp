// Serial-vs-parallel determinism suite for the parallel round scheduler.
//
// The engine's contract: for ANY execution-thread count, round/message/word
// counts, delivery behaviour, and every algorithm output are bit-for-bit
// identical to the serial engine. This suite drives each CONGEST primitive
// and both full constructions (emulator E4 workloads, spanner) at 1/2/8
// lanes and compares everything. It also exercises sends issued from inside
// the parallel on_round fan-out (staged thread-locally, replayed in shard
// order), which the repository's own programs never do.
//
// Built with -DUSNE_SAN=thread this binary doubles as the ThreadSanitizer
// gate for the parallel engine (ctest label "tsan").

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "api/build.hpp"
#include "congest/bfs_forest.hpp"
#include "congest/detect.hpp"
#include "congest/engine.hpp"
#include "congest/flood.hpp"
#include "congest/network.hpp"
#include "congest/ruling_set.hpp"
#include "graph/generators.hpp"

namespace usne {
namespace {

using congest::Message;
using congest::Network;
using congest::NetworkStats;
using congest::NodeProgram;
using congest::Outbox;
using congest::Received;
using congest::ScheduleReport;
using congest::Scheduler;
using congest::Word;

constexpr int kThreadCounts[] = {1, 2, 8};

void expect_same_stats(const NetworkStats& expected, const NetworkStats& got,
                       int threads) {
  EXPECT_EQ(expected.rounds, got.rounds) << "threads=" << threads;
  EXPECT_EQ(expected.messages, got.messages) << "threads=" << threads;
  EXPECT_EQ(expected.words, got.words) << "threads=" << threads;
}

// --- primitives -------------------------------------------------------------

TEST(ParallelDeterminism, FloodPresence) {
  const Graph g = gen_gnm(400, 1600, 5);
  std::vector<Dist> expected_dist;
  NetworkStats expected_stats;
  for (const int threads : kThreadCounts) {
    Network net(g);
    net.set_execution_threads(threads);
    const congest::FloodResult r = congest::flood_presence(net, {0, 7, 123}, 6);
    if (threads == 1) {
      expected_dist = r.dist;
      expected_stats = net.stats();
      continue;
    }
    EXPECT_EQ(expected_dist, r.dist) << "threads=" << threads;
    expect_same_stats(expected_stats, net.stats(), threads);
  }
}

TEST(ParallelDeterminism, BfsForest) {
  const Graph g = gen_gnm(400, 1200, 9);
  congest::BfsForest expected;
  NetworkStats expected_stats;
  for (const int threads : kThreadCounts) {
    Network net(g);
    net.set_execution_threads(threads);
    const congest::BfsForest f =
        congest::build_bfs_forest(net, {0, 50, 333}, 5);
    if (threads == 1) {
      expected = f;
      expected_stats = net.stats();
      continue;
    }
    EXPECT_EQ(expected.root, f.root) << "threads=" << threads;
    EXPECT_EQ(expected.depth, f.depth) << "threads=" << threads;
    EXPECT_EQ(expected.parent, f.parent) << "threads=" << threads;
    expect_same_stats(expected_stats, net.stats(), threads);
  }
}

TEST(ParallelDeterminism, Detect) {
  const Graph g = gen_gnm(300, 1200, 3);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 300; v += 7) sources.push_back(v);
  std::vector<std::vector<SourceHit>> expected_hits;
  std::int64_t expected_rounds = 0;
  NetworkStats expected_stats;
  for (const int threads : kThreadCounts) {
    Network net(g);
    net.set_execution_threads(threads);
    const congest::DetectResult r = congest::detect_congest(net, sources, 4, 6);
    if (threads == 1) {
      expected_hits = r.hits;
      expected_rounds = r.rounds_used;
      expected_stats = net.stats();
      continue;
    }
    EXPECT_EQ(expected_rounds, r.rounds_used) << "threads=" << threads;
    ASSERT_EQ(expected_hits.size(), r.hits.size());
    for (std::size_t v = 0; v < expected_hits.size(); ++v) {
      ASSERT_EQ(expected_hits[v].size(), r.hits[v].size())
          << "threads=" << threads << " v=" << v;
      for (std::size_t i = 0; i < expected_hits[v].size(); ++i) {
        EXPECT_EQ(expected_hits[v][i].source, r.hits[v][i].source);
        EXPECT_EQ(expected_hits[v][i].dist, r.hits[v][i].dist);
        EXPECT_EQ(expected_hits[v][i].pred, r.hits[v][i].pred);
      }
    }
    expect_same_stats(expected_stats, net.stats(), threads);
  }
}

TEST(ParallelDeterminism, RulingSet) {
  const Graph g = gen_gnm(400, 1600, 11);
  std::vector<Vertex> w;
  for (Vertex v = 0; v < 400; v += 3) w.push_back(v);
  congest::RulingSet expected;
  NetworkStats expected_stats;
  for (const int threads : kThreadCounts) {
    Network net(g);
    net.set_execution_threads(threads);
    const congest::RulingSet r = congest::compute_ruling_set(net, w, 2, 4);
    if (threads == 1) {
      expected = r;
      expected_stats = net.stats();
      continue;
    }
    EXPECT_EQ(expected.members, r.members) << "threads=" << threads;
    EXPECT_EQ(expected.rounds_used, r.rounds_used) << "threads=" << threads;
    expect_same_stats(expected_stats, net.stats(), threads);
  }
}

// Skewed inbox sizes: a star center (and BA hubs) receives orders of
// magnitude more messages than leaf vertices, so the message-weighted
// work-stealing chunks of the fan-out are maximally uneven here. The
// contract is unchanged — identical counts and outputs at any thread
// count — this workload just makes an unbalanced split loudest.
TEST(ParallelDeterminism, SkewedInboxesStarAndHubs) {
  for (const Graph& g :
       {gen_star(1500), gen_barabasi_albert(800, 6, 13)}) {
    std::vector<Dist> expected_dist;
    NetworkStats expected_stats;
    for (const int threads : kThreadCounts) {
      Network net(g);
      net.set_execution_threads(threads);
      std::vector<Vertex> sources;
      for (Vertex v = 1; v < g.num_vertices(); v += 97) sources.push_back(v);
      const congest::FloodResult r = congest::flood_presence(net, sources, 4);
      if (threads == 1) {
        expected_dist = r.dist;
        expected_stats = net.stats();
        continue;
      }
      EXPECT_EQ(expected_dist, r.dist) << "threads=" << threads;
      expect_same_stats(expected_stats, net.stats(), threads);
    }
  }
}

// --- full constructions (E4 bench workloads) --------------------------------

TEST(ParallelDeterminism, EmulatorE4Workloads) {
  struct Workload {
    const char* family;
    Vertex n;
  };
  for (const Workload w : {Workload{"er", 128}, Workload{"er", 256},
                           Workload{"torus", 256}, Workload{"ba", 256},
                           Workload{"caveman", 256}}) {
    const Graph g = gen_family(w.family, w.n, 2024);
    BuildSpec spec{.algorithm = "emulator_congest",
                   .params = {.kappa = 4, .eps = 0.4, .rho = 0.49},
                   .exec = {.keep_audit_data = false}};
    BuildOutput expected;
    for (const int threads : kThreadCounts) {
      spec.exec.num_threads = threads;
      BuildOutput r = build(g, spec);
      EXPECT_TRUE(r.endpoints_consistent())
          << w.family << " n=" << w.n << " threads=" << threads;
      if (threads == 1) {
        expected = std::move(r);
        continue;
      }
      // Bit-for-bit: same edges in the same insertion order, same traffic,
      // same per-node knowledge.
      EXPECT_EQ(expected.h().edges(), r.h().edges())
          << w.family << " n=" << w.n << " threads=" << threads;
      EXPECT_EQ(expected.result.u_level, r.result.u_level);
      EXPECT_EQ(expected.result.u_center, r.result.u_center);
      EXPECT_EQ(expected.result.total_rounds, r.result.total_rounds);
      EXPECT_EQ(expected.local, r.local);
      EXPECT_EQ(expected.stats, r.stats);
      expect_same_stats(expected.net, r.net, threads);
    }
  }
}

TEST(ParallelDeterminism, SpannerConstruction) {
  const Graph g = gen_family("er", 256, 2024);
  // Both degree sequences: the paper's spanner and the [EM19] baseline.
  for (const char* algorithm : {"spanner_congest", "spanner_congest_em19"}) {
    BuildSpec spec{.algorithm = algorithm,
                   .params = {.kappa = 4, .eps = 0.4, .rho = 0.49},
                   .exec = {.keep_audit_data = false}};
    BuildOutput expected;
    for (const int threads : kThreadCounts) {
      spec.exec.num_threads = threads;
      BuildOutput r = build(g, spec);
      if (threads == 1) {
        expected = std::move(r);
        continue;
      }
      EXPECT_EQ(expected.h().edges(), r.h().edges())
          << algorithm << " threads=" << threads;
      EXPECT_EQ(expected.result.u_level, r.result.u_level);
      EXPECT_EQ(expected.result.u_center, r.result.u_center);
      EXPECT_EQ(expected.stats, r.stats);
      expect_same_stats(expected.net, r.net, threads);
    }
  }
}

// --- sends from inside the parallel fan-out ---------------------------------

/// Ping-pong program that sends from on_round (none of the repository's
/// programs do): init broadcasts ids; for the next `rounds` rounds every
/// vertex replies to each sender with a running checksum. Exercises the
/// thread-local staging outboxes and their shard-order replay.
class EchoProgram final : public NodeProgram {
 public:
  EchoProgram(Vertex n, std::int64_t rounds) : rounds_(rounds) {
    acc_.assign(static_cast<std::size_t>(n), 0);
  }

  void init(Outbox& out) override {
    for (Vertex v = 0; v < static_cast<Vertex>(acc_.size()); ++v) {
      out.broadcast(v, Message::of(v + 1));
    }
  }

  void on_round(std::int64_t round, Vertex v, std::span<const Received> inbox,
                Outbox& out) override {
    for (const Received& r : inbox) {
      acc_[static_cast<std::size_t>(v)] += r.msg.words[0] * (round + 1);
      if (round + 1 < rounds_) {
        out.send(v, r.from, Message::of(acc_[static_cast<std::size_t>(v)]));
      }
    }
  }

  bool done(std::int64_t next_round) const override {
    return next_round >= rounds_;
  }

  const std::vector<Word>& acc() const noexcept { return acc_; }

 private:
  std::int64_t rounds_;
  std::vector<Word> acc_;
};

TEST(ParallelDeterminism, SendsStagedInOnRoundReplayIdentically) {
  const Graph g = gen_gnm(300, 1500, 17);
  std::vector<Word> expected_acc;
  ScheduleReport expected_report;
  for (const int threads : kThreadCounts) {
    Network net(g);
    net.set_execution_threads(threads);
    EchoProgram program(g.num_vertices(), 5);
    const ScheduleReport report = Scheduler(net).run(program);
    if (threads == 1) {
      expected_acc = program.acc();
      expected_report = report;
      continue;
    }
    EXPECT_EQ(expected_acc, program.acc()) << "threads=" << threads;
    EXPECT_EQ(expected_report.rounds, report.rounds);
    EXPECT_EQ(expected_report.idle_rounds, report.idle_rounds);
    expect_same_stats(expected_report.traffic, report.traffic, threads);
  }
}

TEST(ParallelDeterminism, CapViolationStillThrowsUnderParallelReplay) {
  // Two vertices both message a common neighbour twice via staged sends:
  // the replay must run the same per-edge cap checks the serial engine
  // would. (A violation from *distinct* senders is legal; same sender
  // twice is not.)
  class DoubleEcho final : public NodeProgram {
   public:
    void init(Outbox& out) override {
      for (Vertex v = 0; v < 200; ++v) out.broadcast(v, Message::of(1));
    }
    void on_round(std::int64_t round, Vertex v, std::span<const Received> inbox,
                  Outbox& out) override {
      if (round > 0 || inbox.empty()) return;
      out.send(v, inbox[0].from, Message::of(2));
      out.send(v, inbox[0].from, Message::of(3));  // second message, same edge
    }
    bool done(std::int64_t next_round) const override {
      return next_round >= 2;
    }
  };

  const Graph g = gen_gnm(200, 800, 23);
  Network net(g);
  net.set_execution_threads(4);
  DoubleEcho program;
  Scheduler scheduler(net);
  EXPECT_THROW(scheduler.run(program), congest::CongestViolation);
}

// --- execution policy plumbing ----------------------------------------------

TEST(ParallelDeterminism, ZeroResolvesToHardwareConcurrency) {
  const Graph g = gen_cycle(8);
  Network net(g);
  net.set_execution_threads(0);
  EXPECT_GE(net.execution_threads(), 1);
}

}  // namespace
}  // namespace usne
