// Unit tests for the CONGEST network simulator: delivery semantics, round
// accounting, and — failure injection — enforcement of the model's caps.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "congest/engine.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"

namespace usne::congest {
namespace {

TEST(Network, DeliversNextRound) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(0, 1, Message::of(42));
  EXPECT_TRUE(net.inbox(1).empty());  // not delivered yet
  net.advance_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0);
  EXPECT_EQ(net.inbox(1)[0].msg.words[0], 42);
  net.advance_round();
  EXPECT_TRUE(net.inbox(1).empty());  // cleared after one round
}

TEST(Network, InboxSortedBySender) {
  const Graph g = gen_star(5);  // center 0
  Network net(g);
  net.send(4, 0, Message::of(4));
  net.send(2, 0, Message::of(2));
  net.send(1, 0, Message::of(1));
  net.advance_round();
  ASSERT_EQ(net.inbox(0).size(), 3u);
  EXPECT_EQ(net.inbox(0)[0].from, 1);
  EXPECT_EQ(net.inbox(0)[1].from, 2);
  EXPECT_EQ(net.inbox(0)[2].from, 4);
}

TEST(Network, DeliveredToListsReceivers) {
  const Graph g = gen_path(4);
  Network net(g);
  net.send(1, 0, Message::of(7));
  net.send(1, 2, Message::of(7));
  net.advance_round();
  const auto& delivered = net.delivered_to();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], 0);
  EXPECT_EQ(delivered[1], 2);
}

TEST(Network, StatsAccumulate) {
  const Graph g = gen_cycle(4);
  Network net(g);
  net.broadcast(0, Message::of(1, 2));
  net.advance_round();
  net.advance_rounds(3);
  EXPECT_EQ(net.stats().rounds, 4);
  EXPECT_EQ(net.stats().messages, 2);  // two neighbours
  EXPECT_EQ(net.stats().words, 4);
}

// --- failure injection: the model is enforced, not assumed ---

TEST(NetworkViolation, SecondMessageSameEdgeSameRound) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(0, 1, Message::of(1));
  EXPECT_THROW(net.send(0, 1, Message::of(2)), CongestViolation);
  // Opposite direction is a different directed edge: allowed.
  EXPECT_NO_THROW(net.send(1, 0, Message::of(3)));
  // Next round the edge is free again.
  net.advance_round();
  EXPECT_NO_THROW(net.send(0, 1, Message::of(4)));
}

TEST(NetworkViolation, NonEdgeSend) {
  const Graph g = gen_path(4);  // no edge (0, 2)
  Network net(g);
  EXPECT_THROW(net.send(0, 2, Message::of(1)), CongestViolation);
  EXPECT_THROW(net.send(0, 0, Message::of(1)), CongestViolation);
}

TEST(NetworkViolation, OversizedMessage) {
  const Graph g = gen_path(2);
  Network net(g);
  Message m;
  m.size = kMaxWords + 1;
  EXPECT_THROW(net.send(0, 1, m), CongestViolation);
  Message empty;
  empty.size = 0;
  EXPECT_THROW(net.send(0, 1, empty), CongestViolation);
}

TEST(NetworkViolation, MessageWordOutsideInt32) {
  // A word is O(log n) bits, here 32: a wider value is a model violation
  // naming the value, not a silent truncation.
  constexpr std::int64_t kWide = std::int64_t{1} << 40;
  for (const std::int64_t value : {kWide, -kWide}) {
    try {
      Message::of(1, value);
      ADD_FAILURE() << "Message::of accepted " << value;
    } catch (const CongestViolation& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(value)),
                std::string::npos)
          << e.what();
    }
  }
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_THROW(Message::of(std::int64_t{kMax} + 1), CongestViolation);
  EXPECT_THROW(Message::of(std::int64_t{kMin} - 1), CongestViolation);
  EXPECT_THROW(Message::of(std::uint32_t{kMax} + 1U), CongestViolation);
  const Message m = Message::of(std::int64_t{kMin}, std::int64_t{kMax});
  EXPECT_EQ(m.size, 2);
  EXPECT_EQ(m.words[0], kMin);
  EXPECT_EQ(m.words[1], kMax);
}

TEST(NetworkViolation, OutOfRangeSenderSend) {
  const Graph g = gen_path(3);
  Network net(g);
  EXPECT_THROW(net.send(-1, 0, Message::of(1)), CongestViolation);
  EXPECT_THROW(net.send(3, 2, Message::of(1)), CongestViolation);
  EXPECT_EQ(net.pending_messages(), 0);
  EXPECT_EQ(net.stats().messages, 0);
}

TEST(NetworkViolation, OutOfRangeSenderBroadcast) {
  const Graph g = gen_path(3);
  Network net(g);
  EXPECT_THROW(net.broadcast(-1, Message::of(1)), CongestViolation);
  EXPECT_THROW(net.broadcast(3, Message::of(1)), CongestViolation);
  EXPECT_EQ(net.pending_messages(), 0);
  EXPECT_EQ(net.stats().messages, 0);
}

TEST(NetworkViolation, BroadcastKeepsSendChecks) {
  const Graph g = gen_star(4);  // center 0, leaves 1..3
  Network net(g);
  Message oversized;
  oversized.size = kMaxWords + 1;
  EXPECT_THROW(net.broadcast(0, oversized), CongestViolation);
  EXPECT_EQ(net.pending_messages(), 0);

  // Edge (0,2) is taken this round: like a send per neighbour, the
  // broadcast stages (0,1) and then throws on (0,2).
  net.send(0, 2, Message::of(1));
  try {
    net.broadcast(0, Message::of(2));
    ADD_FAILURE() << "second message on (0,2) was accepted";
  } catch (const CongestViolation& e) {
    EXPECT_STREQ(e.what(), "second message on edge (0,2) in round 0");
  }
  EXPECT_EQ(net.pending_messages(), 2);
  EXPECT_EQ(net.stats().messages, 2);
}

TEST(NetworkViolation, BroadcastHoldsEveryEdgeOfItsRow) {
  // A broadcast is one staged record, yet it holds all of its sender's
  // edges for the round: a later send or broadcast from that vertex throws
  // at the edge a per-neighbour send would have, and stages nothing.
  const Graph g = gen_star(4);  // center 0, leaves 1..3
  Network net(g);
  net.broadcast(0, Message::of(1));
  EXPECT_EQ(net.pending_messages(), 3);
  try {
    net.send(0, 2, Message::of(2));
    ADD_FAILURE() << "second message on (0,2) was accepted";
  } catch (const CongestViolation& e) {
    EXPECT_STREQ(e.what(), "second message on edge (0,2) in round 0");
  }
  try {
    net.broadcast(0, Message::of(3));
    ADD_FAILURE() << "second broadcast from 0 was accepted";
  } catch (const CongestViolation& e) {
    EXPECT_STREQ(e.what(), "second message on edge (0,1) in round 0");
  }
  // The reverse edges are the leaves' own.
  EXPECT_NO_THROW(net.send(2, 0, Message::of(4)));
  EXPECT_EQ(net.pending_messages(), 4);
  EXPECT_EQ(net.stats().messages, 4);

  // Next round every edge is free again.
  net.advance_round();
  EXPECT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(2).size(), 1u);
  EXPECT_NO_THROW(net.send(0, 2, Message::of(5)));
  EXPECT_NO_THROW(net.broadcast(1, Message::of(6)));
}

TEST(NetworkViolation, OutOfRangeBroadcastFromParallelOnRound) {
  // Every vertex broadcasts in init, so round 0 fans on_round out across
  // the pool; one handler then broadcasts as vertex n. The staging outbox
  // must reject the sender before it reads an adjacency row (a replayed
  // send would report "send from ..." instead), and the violation must
  // surface from Scheduler::run.
  class OutOfRangeBroadcast final : public NodeProgram {
   public:
    explicit OutOfRangeBroadcast(Vertex n) : n_(n) {}
    void init(Outbox& out) override {
      for (Vertex v = 0; v < n_; ++v) out.broadcast(v, Message::of(1));
    }
    void on_round(std::int64_t, Vertex v, std::span<const Received>,
                  Outbox& out) override {
      if (v == n_ / 2) out.broadcast(n_, Message::of(2));
    }
    bool done(std::int64_t next_round) const override {
      return next_round >= 1;
    }

   private:
    Vertex n_;
  };

  const Graph g = gen_gnm(200, 800, 23);
  Network net(g);
  net.set_execution_threads(4);
  OutOfRangeBroadcast program(g.num_vertices());
  try {
    Scheduler(net).run(program);
    ADD_FAILURE() << "broadcast from vertex n was accepted";
  } catch (const CongestViolation& e) {
    EXPECT_STREQ(e.what(), "broadcast from out-of-range vertex 200");
  }
}

TEST(Network, BroadcastFromIsolatedVertexSendsNothing) {
  GraphBuilder b(3);
  b.add_edge(0, 1);  // vertex 2 has no neighbours
  const Graph g = b.build();
  Network net(g);
  Message oversized;
  oversized.size = kMaxWords + 1;
  EXPECT_NO_THROW(net.broadcast(2, oversized));
  EXPECT_EQ(net.pending_messages(), 0);
}

TEST(Network, EmptyRoundsAreCheap) {
  const Graph g = gen_gnm(100, 200, 1);
  Network net(g);
  net.advance_rounds(100000);
  EXPECT_EQ(net.stats().rounds, 100000);
  EXPECT_EQ(net.stats().messages, 0);
}

TEST(Network, MaxWordsMessageAllowed) {
  const Graph g = gen_path(2);
  Network net(g);
  EXPECT_NO_THROW(net.send(0, 1, Message::of(1, 2, 3, 4)));
  net.advance_round();
  EXPECT_EQ(net.inbox(1)[0].msg.size, 4);
}

}  // namespace
}  // namespace usne::congest
