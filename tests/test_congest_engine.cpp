// Tests for the CONGEST engine v2: flat-arena delivery equivalence against
// a naive per-vertex-queue reference model, allocation-free round
// advancement after warm-up, cap enforcement through the Scheduler, and
// engine-level idle-round accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "congest/engine.hpp"
#include "congest/flood.hpp"
#include "congest/network.hpp"
#include "congest/transport.hpp"
#include "graph/generators.hpp"

// --- global allocation counter (this test binary only) ---------------------
// Used by the zero-allocation steady-state test; counting is cheap enough to
// leave on for the whole binary.

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

// In sanitizer builds GCC attributes allocations to the sanitizer's
// interposed allocator and flags these free() calls as mismatched; the
// pairing is malloc/free by construction (and the sanitizers intercept
// both), so the diagnostic is noise here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms too: std::stable_sort's temporary buffer (the
// delivery arena sorts runs with it under Faulty and Async) allocates
// through them and frees through the plain delete below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace usne::congest {
namespace {

// --- arena delivery vs. naive reference model ------------------------------

TEST(NetworkArena, EquivalentToNaiveQueueModel) {
  // Four traffic shapes in turn, so both delivery paths run: random sends,
  // broadcasts from most vertices (pull), the same mixed with sends from
  // the rest (push, though dense), and a few broadcasts (push, sparse).
  const Graph g = gen_gnm(60, 180, 7);
  Network net(g);
  std::mt19937 rng(42);

  NetworkStats expected;
  std::int64_t dense_broadcast_rounds = 0;
  for (int round = 0; round < 60; ++round) {
    // The naive model: one queue per receiver, each message appended.
    std::map<Vertex, std::vector<Received>> reference;
    const auto post = [&](Vertex u, Vertex v, const Message& m) {
      reference[v].push_back({u, m});
      ++expected.messages;
      expected.words += m.size;
    };
    const int shape = round % 4;
    if (shape == 0) {
      // Random traffic: a subset of directed edges, one message each.
      std::set<std::pair<Vertex, Vertex>> sent;
      for (int k = 0; k < 40; ++k) {
        const Vertex u = static_cast<Vertex>(rng() % 60);
        const auto nbrs = g.neighbors(u);
        if (nbrs.empty()) continue;
        const Vertex v = nbrs[rng() % nbrs.size()];
        if (!sent.insert({u, v}).second) continue;  // respect the edge cap
        const Message m = Message::of(static_cast<Word>(rng() % 1000), u);
        net.send(u, v, m);
        post(u, v, m);
      }
    } else {
      // Broadcasts from 5 in 6 vertices (dense) or 1 in 12 (sparse); in
      // the mixed shape, each vertex that does not broadcast sends on its
      // first edge.
      const unsigned per_12 = shape == 3 ? 1 : 10;
      for (Vertex u = 0; u < 60; ++u) {
        const auto nbrs = g.neighbors(u);
        const Message m =
            Message::of(static_cast<Word>(rng() % 1000), u, round);
        if (rng() % 12 < per_12) {
          net.broadcast(u, m);
          for (const Vertex v : nbrs) post(u, v, m);
        } else if (shape == 2 && !nbrs.empty()) {
          net.send(u, nbrs[0], m);
          post(u, nbrs[0], m);
        }
      }
      dense_broadcast_rounds += shape == 1;
    }
    net.advance_round();
    ++expected.rounds;

    // delivered_to: exactly the receivers, ascending.
    std::vector<Vertex> receivers;
    for (const auto& [v, msgs] : reference) receivers.push_back(v);
    ASSERT_EQ(net.delivered_to(), receivers);

    // Per-vertex inboxes: same multiset, sorted by sender.
    for (Vertex v = 0; v < 60; ++v) {
      auto it = reference.find(v);
      if (it == reference.end()) {
        EXPECT_TRUE(net.inbox(v).empty());
        continue;
      }
      auto& expected_box = it->second;
      std::sort(expected_box.begin(), expected_box.end(),
                [](const Received& a, const Received& b) {
                  return a.from < b.from;
                });
      const auto box = net.inbox(v);
      ASSERT_EQ(box.size(), expected_box.size());
      for (std::size_t i = 0; i < box.size(); ++i) {
        EXPECT_EQ(box[i].from, expected_box[i].from);
        EXPECT_EQ(box[i].msg.size, expected_box[i].msg.size);
        for (int w = 0; w < box[i].msg.size; ++w) {
          EXPECT_EQ(box[i].msg.words[w], expected_box[i].msg.words[w]);
        }
      }
    }

    EXPECT_EQ(net.stats().rounds, expected.rounds);
    EXPECT_EQ(net.stats().messages, expected.messages);
    EXPECT_EQ(net.stats().words, expected.words);
  }
  // Exactly the dense broadcast-only rounds went by pull.
  EXPECT_EQ(net.pull_rounds(), dense_broadcast_rounds);
}

TEST(NetworkArena, PullMatchesFaultyPassThrough) {
  // Faulty with drop 0 and dup 0 delivers every message once, through the
  // model and the counting sort; the Ideal network pulls the same dense
  // rounds. Every inbox must match, message for message.
  const Graph g = gen_gnm(200, 1000, 3);
  Network ideal(g);
  Network faulty(g);
  TransportSpec spec;
  spec.model = TransportModel::kFaulty;
  faulty.configure_transport(spec);
  std::mt19937 rng(9);
  for (int round = 0; round < 24; ++round) {
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      if (rng() % 8 == 0) continue;
      const Message m = Message::of(static_cast<Word>(rng()), u, round);
      ideal.broadcast(u, m);
      faulty.broadcast(u, m);
    }
    ideal.advance_round();
    faulty.advance_round();
    ASSERT_EQ(ideal.delivered_to(), faulty.delivered_to());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto a = ideal.inbox(v);
      const auto b = faulty.inbox(v);
      ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].from, b[i].from);
        EXPECT_EQ(a[i].msg.size, b[i].msg.size);
        for (int w = 0; w < kMaxWords; ++w) {
          EXPECT_EQ(a[i].msg.words[w], b[i].msg.words[w]);
        }
      }
    }
  }
  EXPECT_EQ(ideal.stats().messages, faulty.stats().messages);
  EXPECT_EQ(ideal.stats().words, faulty.stats().words);
  EXPECT_EQ(ideal.pull_rounds(), 24);
  EXPECT_EQ(faulty.pull_rounds(), 0);
}

TEST(NetworkArena, ViolationsStillEnforced) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(0, 1, Message::of(1));
  EXPECT_THROW(net.send(0, 1, Message::of(2)), CongestViolation);
  Message oversized;
  oversized.size = kMaxWords + 1;
  EXPECT_THROW(net.send(1, 2, oversized), CongestViolation);
  EXPECT_THROW(net.send(0, 2, Message::of(1)), CongestViolation);
  net.advance_round();
  EXPECT_NO_THROW(net.send(0, 1, Message::of(3)));
}

TEST(NetworkArena, ZeroAllocationSteadyState) {
  const Graph g = gen_gnm(100, 300, 11);
  Network net(g);
  Vertex u = 0;
  while (g.neighbors(u).empty()) ++u;
  const Vertex w = g.neighbors(u)[0];

  // Warm-up: drive the maximum traffic shape once so every internal buffer
  // reaches its high-water mark.
  auto drive = [&] {
    for (int round = 0; round < 10; ++round) {
      for (Vertex v = 0; v < 100; ++v) {
        net.broadcast(v, Message::of(round, v));
      }
      net.advance_round();
    }
    // A sparse round mixing a broadcast and a send: delivered by push, not
    // by pull like the rounds above.
    net.send(u, w, Message::of(1));
    net.broadcast(w, Message::of(2));
    net.advance_round();
    net.advance_rounds(5);  // idle rounds too
  };
  drive();

  // Steady state: the identical traffic shape must perform zero heap
  // allocations inside send/broadcast/advance_round.
  const std::int64_t pulls = net.pull_rounds();
  const std::int64_t before = g_allocations.load();
  drive();
  const std::int64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(net.pull_rounds() - pulls, 10);
}

// --- Scheduler / NodeProgram -----------------------------------------------

/// Never sends; runs a fixed number of rounds.
class SilentProgram final : public NodeProgram {
 public:
  explicit SilentProgram(std::int64_t rounds) : rounds_(rounds) {}
  void init(Outbox&) override {}
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t next_round) const override {
    return next_round >= rounds_;
  }

 private:
  std::int64_t rounds_;
};

/// Broadcasts once from a vertex in init, then stays silent.
class OneShotProgram final : public NodeProgram {
 public:
  OneShotProgram(Vertex from, std::int64_t rounds)
      : from_(from), rounds_(rounds) {}
  void init(Outbox& out) override { out.broadcast(from_, Message::of(99)); }
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t next_round) const override {
    return next_round >= rounds_;
  }

 private:
  Vertex from_;
  std::int64_t rounds_;
};

/// Violates the per-edge cap from inside the engine.
class DoubleSendProgram final : public NodeProgram {
 public:
  void init(Outbox& out) override {
    out.send(0, 1, Message::of(1));
    out.send(0, 1, Message::of(2));
  }
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t next_round) const override { return next_round >= 1; }
};

TEST(Scheduler, IdleRoundAccounting) {
  const Graph g = gen_cycle(8);
  Network net(g);
  SilentProgram program(5);
  const ScheduleReport report = Scheduler(net).run(program);
  EXPECT_EQ(report.rounds, 5);
  EXPECT_EQ(report.idle_rounds, 5);
  EXPECT_EQ(report.traffic.messages, 0);
  EXPECT_EQ(net.stats().rounds, 5);  // idle rounds still count
}

TEST(Scheduler, MixedIdleAccounting) {
  const Graph g = gen_path(4);
  Network net(g);
  OneShotProgram program(0, 6);
  const ScheduleReport report = Scheduler(net).run(program);
  // Round 0 delivers the broadcast; the remaining 5 rounds are idle.
  EXPECT_EQ(report.rounds, 6);
  EXPECT_EQ(report.idle_rounds, 5);
  EXPECT_EQ(report.traffic.messages, 1);
  EXPECT_EQ(report.traffic.words, 1);
}

TEST(Scheduler, PerProgramTrafficDeltas) {
  const Graph g = gen_path(4);
  Network net(g);
  Scheduler scheduler(net);
  OneShotProgram first(0, 2);
  OneShotProgram second(1, 3);
  const ScheduleReport r1 = scheduler.run(first);
  const ScheduleReport r2 = scheduler.run(second);
  EXPECT_EQ(r1.rounds, 2);
  EXPECT_EQ(r1.traffic.messages, 1);
  EXPECT_EQ(r2.rounds, 3);
  EXPECT_EQ(r2.traffic.messages, 2);  // vertex 1 has two neighbours
  EXPECT_EQ(net.stats().rounds, 5);   // cumulative across programs
  EXPECT_EQ(net.stats().messages, 3);
}

TEST(Scheduler, ProfileSinkMetersMessagesPerRun) {
  const Graph g = gen_path(4);
  Network net(g);
  Scheduler scheduler(net);
  OneShotProgram unprofiled(0, 2);
  scheduler.run(unprofiled);  // no sink installed: nothing is metered

  StageTimes sink;
  net.set_profile_sink(&sink);
  OneShotProgram first(1, 3);   // vertex 1 has two neighbours
  OneShotProgram second(0, 2);  // vertex 0 has one
  scheduler.run(first);
  const StageTimes after_first = sink;
  scheduler.run(second);
  net.set_profile_sink(nullptr);

  EXPECT_EQ(after_first.messages, 2);
  EXPECT_EQ((sink - after_first).messages, 1);
  EXPECT_EQ(sink.messages, 3);
  EXPECT_EQ(sink.rounds, 5);
  EXPECT_EQ(StageTimes{}.msgs_per_s(), 0.0);
}

TEST(Scheduler, CongestViolationPropagates) {
  const Graph g = gen_path(3);
  Network net(g);
  DoubleSendProgram program;
  Scheduler scheduler(net);
  EXPECT_THROW(scheduler.run(program), CongestViolation);
}

TEST(Scheduler, FloodThroughEngineMatchesSchedule) {
  // flood_presence runs on the engine; its fixed schedule burns rounds even
  // after the wave dies out, and the result is unchanged.
  const Graph g = gen_path(3);
  Network net(g);
  const FloodResult flood = flood_presence(net, {0}, 10);
  EXPECT_EQ(net.stats().rounds, 10);
  EXPECT_EQ(flood.dist[0], 0);
  EXPECT_EQ(flood.dist[1], 1);
  EXPECT_EQ(flood.dist[2], 2);
}

// --- flush-or-throw at program end ------------------------------------------

/// Buggy by design: issues sends and then immediately reports done, leaving
/// the messages staged. Before the flush-or-throw guard these silently
/// leaked into the next program run on the same network.
class LeakyProgram final : public NodeProgram {
 public:
  explicit LeakyProgram(Vertex from) : from_(from) {}
  void init(Outbox& out) override { out.broadcast(from_, Message::of(7)); }
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t) const override { return true; }  // trips after sends

 private:
  Vertex from_;
};

/// Counts the messages it receives; used to prove no cross-program leak.
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

TEST(Scheduler, ThrowsWhenProgramEndsWithStagedMessages) {
  const Graph g = gen_path(4);
  Network net(g);
  LeakyProgram leaky(1);
  Scheduler scheduler(net);
  EXPECT_THROW(scheduler.run(leaky), CongestViolation);
}

TEST(Scheduler, BackToBackProgramsDoNotLeak) {
  // Regression for the staged-message leak: a leaky first program must not
  // hand its messages to the second program on the same network. The guard
  // throws at the first program's end; the second program then observes a
  // clean network.
  const Graph g = gen_path(4);
  Network net(g);
  Scheduler scheduler(net);

  LeakyProgram leaky(1);
  EXPECT_THROW(scheduler.run(leaky), CongestViolation);

  // Well-behaved back-to-back pair: the second sees only its own traffic.
  net.advance_round();  // clear the leaked staging (delivers + discards)
  CountingProgram first(2);
  CountingProgram second(2);
  scheduler.run(first);
  const std::int64_t before = net.stats().messages;
  scheduler.run(second);
  EXPECT_EQ(first.received(), 0);
  EXPECT_EQ(second.received(), 0);
  EXPECT_EQ(net.stats().messages, before);
}

// --- PipelinedQueues ---------------------------------------------------------

TEST(PipelinedQueues, DefersSecondItemPerDestinationWithinARound) {
  PipelinedQueues<int> q(4);
  q.push(0, 1, 10);
  q.push(0, 1, 11);  // same destination: must wait a round
  q.push(0, 2, 12);
  q.push(3, 1, 13);  // different source, same destination: fine same round
  EXPECT_EQ(q.queued(), 4);

  std::vector<std::tuple<Vertex, Vertex, int>> sent;
  q.drain_round([&](Vertex f, Vertex t, int p) { sent.push_back({f, t, p}); });
  EXPECT_EQ(sent, (std::vector<std::tuple<Vertex, Vertex, int>>{
                      {0, 1, 10}, {0, 2, 12}, {3, 1, 13}}));
  EXPECT_EQ(q.queued(), 1);

  sent.clear();
  q.drain_round([&](Vertex f, Vertex t, int p) { sent.push_back({f, t, p}); });
  EXPECT_EQ(sent, (std::vector<std::tuple<Vertex, Vertex, int>>{{0, 1, 11}}));
  EXPECT_EQ(q.queued(), 0);
}

TEST(PipelinedQueues, StarGraphHubDrainStress) {
  // A hub with `leaves` queued items per distinct leaf, `repeat` deep. The
  // old drain_round did a linear membership scan over the destinations
  // already served (O(deg^2) per round on a hub); the stamp-based drain is
  // O(items). At this size the quadratic version burns hundreds of
  // millions of comparisons — the stress would have caught it.
  constexpr Vertex kLeaves = 20000;
  constexpr int kRepeat = 3;
  PipelinedQueues<int> q(kLeaves + 1);
  const Vertex hub = 0;
  for (int r = 0; r < kRepeat; ++r) {
    for (Vertex leaf = 1; leaf <= kLeaves; ++leaf) {
      q.push(hub, leaf, r);
    }
  }
  EXPECT_EQ(q.queued(), static_cast<std::int64_t>(kLeaves) * kRepeat);

  // Drains in exactly kRepeat rounds: every leaf is served once per round.
  for (int round = 0; round < kRepeat; ++round) {
    std::vector<std::int64_t> hits(static_cast<std::size_t>(kLeaves) + 1, 0);
    std::int64_t sent = 0;
    const bool any = q.drain_round([&](Vertex f, Vertex t, int p) {
      EXPECT_EQ(f, hub);
      EXPECT_EQ(p, round);  // FIFO per destination
      ++hits[static_cast<std::size_t>(t)];
      ++sent;
    });
    EXPECT_TRUE(any);
    EXPECT_EQ(sent, static_cast<std::int64_t>(kLeaves));
    for (Vertex leaf = 1; leaf <= kLeaves; ++leaf) {
      EXPECT_EQ(hits[static_cast<std::size_t>(leaf)], 1);  // per-edge cap
    }
  }
  EXPECT_EQ(q.queued(), 0);
}

// --- construction guards -----------------------------------------------------

TEST(Network, RejectsEmptyGraph) {
  const Graph empty(0, {});
  EXPECT_THROW(Network net(empty), std::invalid_argument);
}

}  // namespace
}  // namespace usne::congest
