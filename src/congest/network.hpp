#pragma once

// Synchronous CONGEST-model network simulator.
//
// Processors live on the vertices of the input graph G and communicate with
// graph neighbours in synchronous rounds. Per the CONGEST model (paper
// §1.5.1), a message is O(1) words (O(log n) bits); we enforce a hard cap of
// kMaxWords words per message and one message per directed edge per round.
// Violating either cap throws CongestViolation — the model is enforced, not
// merely assumed, and the test suite injects violations to prove it.
//
// The simulator meters rounds, messages and words; the distributed
// experiments (bench E4) report these against the paper's O(beta * n^rho)
// bound. Rounds with no traffic still count (algorithms in this repository
// run on fixed, parameter-determined schedules exactly like the paper's).
//
// Send path: a send checks the word cap and the sender, finds its directed
// edge slot by binary search in the sender's sorted CSR row (the slots are
// the CSR adjacency itself) and stamps the slot with the round number: the
// per-edge cap. A broadcast stages one record, not one per neighbour, and
// stamps its sender instead. Per-vertex round stamps keep the cap exact: a
// broadcast conflicts with an earlier broadcast or send from its vertex in
// the same round, and a send with an earlier broadcast from its sender.
// Only a vertex that already sent point-to-point this round walks its row
// slot by slot, like one send per neighbour, so it throws at the same edge
// and leaves the same messages staged. Counts stay per message: a
// broadcast adds deg(from) messages and deg(from) x size words.
//
// Words: a word is a std::int32_t, O(log n) bits for any n a Vertex can
// name. Message::of range-checks every value it packs and throws
// CongestViolation naming one that does not fit, so an oversized payload is
// a model violation, not a silent truncation. A message is 20 bytes, a
// delivered record 24.
//
// Storage: the round's records append to a flat staging buffer, and
// advance_round() turns them into an arena of inboxes, one contiguous
// Received run per receiving vertex, each run sorted by sender. All
// buffers are reused across rounds, so round advancement performs no heap
// allocation once the per-round traffic high-water mark has been reached.
// A round is delivered one of two ways:
//
//   pull  when the built-in Ideal model is installed, the round staged no
//         point-to-point send, and its broadcasts cover at least
//         1/kPullDensity of the 2|E| directed edges (a rule on the round's
//         own traffic). Each receiver walks its sorted CSR row and writes
//         (w, msg_w) for every neighbour w that broadcast: runs come out in
//         sender order with no sort (the bottom-up step of
//         direction-optimizing BFS). The arena is row-aligned: v receives
//         at most deg(v) messages, so its run starts at its own CSR offset
//         and the arena holds 2|E| records. Any vertex range therefore
//         fills independently of the others, with no prefix sum.
//   push  every other round. The records expand, in staging order, into
//         one Staged message per edge; the delivery model turns those into
//         the batch, which is counting-sorted into the arena and sorted by
//         sender within each run. Faulty, Async and custom models therefore
//         see exactly the per-edge batch.
//
// Who fills a pulled round: advance_round() fills the whole round, vertex
// range [0, n), before it returns; the serial Scheduler and direct callers
// take that path. Under a parallel policy the Scheduler instead has its
// lanes fill the round (congest/engine.hpp): each lane fills one vertex
// range and runs that range's on_round, and the chunks' receivers,
// concatenated in range order, become delivered_to(). Both are the same
// fill function over a different range.
//
// Both paths build the same inboxes and run the same conservation audits;
// a lane-filled round runs them once its lanes have finished.
//
// What happens to a staged message *between* the send and the next round's
// inbox is delegated to a pluggable DeliveryModel (congest/transport.hpp):
// the default Ideal model delivers everything exactly once next round (the
// classic synchronous CONGEST semantics, bit-for-bit the pre-transport
// engine); Faulty and Async inject seeded drops/duplicates and per-message
// latencies. configure_transport() installs a model.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace usne::util {
class ThreadPool;
}  // namespace usne::util

namespace usne::congest {

class DeliveryModel;
struct TransportSpec;

/// Thrown when an algorithm violates the CONGEST constraints.
class CongestViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// One machine word as transmitted on an edge: O(log n) bits (paper
/// §1.5.1). Every payload the algorithms send (tags, vertex ids, depths,
/// distances) is below n.
using Word = std::int32_t;

/// Maximum words per message ("O(1) words").
inline constexpr int kMaxWords = 4;

/// A CONGEST message: up to kMaxWords words.
struct Message {
  Word words[kMaxWords] = {};
  int size = 0;

  /// Builds a message from 1..kMaxWords integral words; arity is checked at
  /// compile time against the O(1)-word cap, and each value at run time
  /// against the word's range (CongestViolation naming the value).
  template <typename... Ws>
  static Message of(Ws... ws) {
    static_assert(sizeof...(Ws) >= 1 &&
                      sizeof...(Ws) <= static_cast<std::size_t>(kMaxWords),
                  "a CONGEST message carries 1..kMaxWords words");
    static_assert((std::is_integral_v<Ws> && ...),
                  "message payload must be integral words");
    (check_word(ws), ...);
    return Message{{static_cast<Word>(ws)...},
                   static_cast<int>(sizeof...(Ws))};
  }

 private:
  template <typename W>
  static void check_word(W w) {
    if (!std::in_range<Word>(w)) {
      throw CongestViolation("message word " + std::to_string(w) +
                             " does not fit a 32-bit CONGEST word");
    }
  }
};

/// A delivered message, tagged with the sending neighbour.
struct Received {
  Vertex from = -1;
  Message msg;
};

/// A staged message: recipient plus the Received it will become. The unit
/// the transport layer (DeliveryModel) operates on.
struct Staged {
  Vertex to = -1;
  Received rcv;
};

/// `Outgoing::to` of a broadcast.
inline constexpr Vertex kAllNeighbours = -1;

/// A send as a program issued it: one point-to-point message, or a
/// broadcast (to == kAllNeighbours) standing for one message on every edge
/// of from's row. The Network stages these and a staging Outbox buffers
/// them.
struct Outgoing {
  Vertex from = -1;
  Vertex to = kAllNeighbours;
  Message msg;
};

static_assert(sizeof(Message) == 20 && sizeof(Received) == 24 &&
                  sizeof(Staged) == 28 && sizeof(Outgoing) == 28,
              "message records are packed in 32-bit words");

/// Throws CongestViolation unless `from` is a vertex of `g`. Every send
/// path runs it before it reads the sender's adjacency row; `op` names the
/// path in the message.
inline void check_sender(const Graph& g, Vertex from, const char* op) {
  if (from < 0 || from >= g.num_vertices()) {
    throw CongestViolation(std::string(op) + " from out-of-range vertex " +
                           std::to_string(from));
  }
}

/// Cumulative traffic statistics.
struct NetworkStats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t words = 0;
};

/// Wall-clock decomposition of Scheduler::run — where a CONGEST program's
/// time actually goes, stage by stage:
///   init       program.init (seeding round 0)
///   deliver    Network::advance_round (pull fill, or transport +
///              counting-sort scatter)
///   compute    the on_round fan-out, incl. parallel chunk planning; on a
///              lane-filled pulled round (parallel policy) it also holds
///              that round's fill, since each lane fills the inboxes it
///              then reads, so a falling deliver_s and a rising compute_s
///              are one move
///   replay     ascending-order replay of staged parallel sends
///   end_round  the central end_round hook
///   drain      end-of-program quiescence (non-ideal transports)
/// Accumulated by the Scheduler into the sink installed via
/// Network::set_profile_sink (nullptr = profiling off, zero clock reads),
/// together with the rounds and messages each run drove and how many of
/// those rounds the Network delivered by pull (see the file comment).
/// Several programs run back to back on one network accumulate into the
/// same sink; callers snapshot per-program deltas via operator- exactly
/// like they do with Network::stats().
///
/// Measurement only: the profile never feeds algorithm output, and counts
/// and results are bit-identical with profiling on or off.
struct StageTimes {
  double init_s = 0;
  double deliver_s = 0;
  double compute_s = 0;
  double replay_s = 0;
  double end_round_s = 0;
  double drain_s = 0;
  double wall_s = 0;  ///< total Scheduler::run wall time
  std::int64_t rounds = 0;
  std::int64_t pull_rounds = 0;  ///< rounds delivered by pull
  std::int64_t messages = 0;     ///< messages sent (NetworkStats delta)

  /// Simulator throughput over the profiled runs (0 with no wall time).
  double msgs_per_s() const noexcept {
    return wall_s > 0 ? static_cast<double>(messages) / wall_s : 0.0;
  }

  /// Sum of the attributed stages; wall_s minus this is untimed scheduler
  /// overhead (loop control, report assembly). The --profile acceptance
  /// gate asserts stage_sum_s() >= 0.95 * wall_s.
  double stage_sum_s() const noexcept {
    return init_s + deliver_s + compute_s + replay_s + end_round_s + drain_s;
  }

  StageTimes& operator+=(const StageTimes& o) noexcept {
    init_s += o.init_s;
    deliver_s += o.deliver_s;
    compute_s += o.compute_s;
    replay_s += o.replay_s;
    end_round_s += o.end_round_s;
    drain_s += o.drain_s;
    wall_s += o.wall_s;
    rounds += o.rounds;
    pull_rounds += o.pull_rounds;
    messages += o.messages;
    return *this;
  }

  friend StageTimes operator-(StageTimes a, const StageTimes& b) noexcept {
    a.init_s -= b.init_s;
    a.deliver_s -= b.deliver_s;
    a.compute_s -= b.compute_s;
    a.replay_s -= b.replay_s;
    a.end_round_s -= b.end_round_s;
    a.drain_s -= b.drain_s;
    a.wall_s -= b.wall_s;
    a.rounds -= b.rounds;
    a.pull_rounds -= b.pull_rounds;
    a.messages -= b.messages;
    return a;
  }
};

/// One labeled slice of a construction profile ("p0.detect", "p1.forest",
/// ...): the stage times accrued while that task's scheduler runs drove
/// the network, and the process's peak RSS when the task ended. Builders
/// emit one entry per (phase, task); peak_rss_mb never falls from one
/// entry to the next, and an entry whose peak_rss_mb exceeds the one
/// before it names a task that raised the high-water mark.
struct PhaseProfileEntry {
  std::string label;
  StageTimes times;
  double peak_rss_mb = 0;
};

/// The simulator. One instance per algorithm execution; primitives send
/// during a round and call advance_round() to deliver.
class Network {
 public:
  /// Throws std::invalid_argument on an empty graph (a CONGEST network
  /// needs at least one processor; edge-slot arithmetic assumes n > 0).
  /// Starts with the Ideal delivery model installed.
  explicit Network(const Graph& g);
  ~Network();

  // Movable, not copyable. Defined in network.cpp where ThreadPool and
  // DeliveryModel are complete (the in-class default would not compile for
  // clients).
  Network(Network&&) noexcept;
  Network& operator=(Network&&) noexcept;

  const Graph& graph() const noexcept { return *graph_; }
  Vertex num_vertices() const noexcept { return graph_->num_vertices(); }

  /// Execution-policy knob read by the Scheduler: total worker lanes for
  /// the parallel round fan-out. 1 (the default) selects the serial
  /// engine; 0 resolves to the hardware concurrency. The engines are
  /// bit-for-bit equivalent, so this only affects wall-clock time.
  void set_execution_threads(int threads);
  int execution_threads() const noexcept { return exec_threads_; }

  /// The persistent worker pool backing the parallel scheduler. Lazily
  /// created on first use; nullptr while execution_threads() == 1.
  util::ThreadPool* thread_pool();

  /// Installs the delivery model described by `spec` (validates it first).
  /// Must be called while the network is quiescent — throws
  /// std::logic_error if messages are staged or in flight (a model swap
  /// would strand them).
  void configure_transport(const TransportSpec& spec);

  /// Installs a caller-built delivery model (same quiescence rule). The
  /// extension point for custom transports; the invariant tests use it to
  /// rig a model that breaks message conservation on purpose.
  void configure_transport(std::unique_ptr<DeliveryModel> model);

  /// The installed delivery model (Ideal unless configure_transport said
  /// otherwise). Exposes kind()/name()/counters().
  const DeliveryModel& transport() const noexcept { return *model_; }

  /// Messages the transport holds for delivery in a later round (Async's
  /// latency wheel; 0 for Ideal/Faulty). Quiescence for the Scheduler is
  /// pending_messages() + in_flight() == 0.
  std::int64_t in_flight() const noexcept;

  /// Sends `msg` from `from` to neighbouring vertex `to` for delivery at the
  /// start of the next round. Throws CongestViolation if the message
  /// exceeds kMaxWords, `from` is not a vertex, (from,to) is not an edge,
  /// or a second message is sent on the same directed edge within one
  /// round. Finds the edge slot by binary search in from's sorted row.
  void send(Vertex from, Vertex to, const Message& msg);

  /// Sends `msg` from `from` to every neighbour (one message per edge),
  /// with send's checks and exception texts. Stages one record and stamps
  /// `from`; only a vertex that already sent this round walks its row (see
  /// the file comment). A vertex with no neighbours sends nothing and
  /// throws nothing (an out-of-range `from` still throws).
  void broadcast(Vertex from, const Message& msg);

  /// Ends the current round: delivers a dense broadcast-only round under
  /// the built-in Ideal model by pull, filling every inbox before it
  /// returns, and otherwise hands the staged sends to the delivery model
  /// and materializes its batch in the inboxes.
  void advance_round();

  /// Advances `k` rounds (the first delivers pending messages; the rest are
  /// idle rounds that still count, matching fixed schedules).
  void advance_rounds(std::int64_t k);

  /// Messages delivered to v at the start of the current round, sorted by
  /// sender. The span points into the delivery arena and is invalidated by
  /// the next advance_round().
  std::span<const Received> inbox(Vertex v) const {
    const std::int64_t count = inbox_count_[static_cast<std::size_t>(v)];
    if (count == 0) return {};
    return {arena_.data() + inbox_begin_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(count)};
  }

  /// Vertices with a non-empty inbox this round (ascending).
  const std::vector<Vertex>& delivered_to() const noexcept {
    return delivered_;
  }

  /// Messages in the current round's delivery batch (the Scheduler's
  /// min-work signal for the parallel fan-out cutoff).
  std::int64_t delivered_messages() const noexcept {
    return delivered_messages_;
  }

  /// Messages staged for the next round but not yet handed to the
  /// transport. A program must end with zero staged and zero in-flight
  /// messages (the Scheduler enforces / drains this): anything left here
  /// would silently leak into the next program run on the same network.
  std::int64_t pending_messages() const noexcept {
    return pending_sends_ + pending_broadcast_messages_;
  }

  /// Rounds delivered by pull since construction (the Scheduler's
  /// StageTimes::pull_rounds).
  std::int64_t pull_rounds() const noexcept { return pull_rounds_; }

  const NetworkStats& stats() const noexcept { return stats_; }

  /// Installs (or clears, with nullptr) the stage-profile accumulator the
  /// Scheduler writes into. While null — the default — the Scheduler reads
  /// no clocks at all, so profiling is pay-for-use. The sink must outlive
  /// every Scheduler::run on this network (builders keep it in their build
  /// state and snapshot deltas per task).
  void set_profile_sink(StageTimes* sink) noexcept { profile_ = sink; }
  StageTimes* profile_sink() const noexcept { return profile_; }

  /// Messages materialized in delivery batches since construction, across
  /// every installed transport. One side of the conservation ledger the
  /// kTransport audit balances every round:
  ///   sent + duplicated == delivered + dropped + in_flight.
  std::int64_t delivered_total() const noexcept { return delivered_total_; }

 private:
  std::int64_t directed_edge_id(Vertex from, Vertex to) const;

  /// Claims directed edge slot `eid` for this round (the one-message-per-
  /// edge cap) and stages a point-to-point record. The word cap and a
  /// broadcast from `from` this round are the caller's checks.
  void stage_send(std::int64_t eid, Vertex from, Vertex to, const Message& msg);

  // The Scheduler drives a lane-filled pulled round through open_pull,
  // pull_fill and close_pull (see the file comment); nothing else does.
  friend class Scheduler;

  /// Whether this round is delivered by pull (see the file comment).
  bool pull_round() const noexcept;

  /// Resets the previous round's inbox counts and clears delivered_.
  void retire_delivery();

  /// Pull: retires the previous round and sizes the row-aligned arena.
  void open_pull();

  /// Pull: fills the inbox of every vertex in [begin, end) that a
  /// neighbour broadcast to, appends those vertices to `receivers` in
  /// ascending order and returns the messages filled. It writes only those
  /// vertices' arena rows and inbox entries, so lanes may run it at once
  /// on disjoint ranges.
  std::int64_t pull_fill(Vertex begin, Vertex end,
                         std::vector<Vertex>& receivers);

  /// Pull: closes the round. `chunks` are the lanes' receiver lists in
  /// range order (appended to delivered_), `messages` the messages they
  /// filled.
  void close_pull(std::span<const std::vector<Vertex>> chunks,
                  std::int64_t messages);

  /// Ends a delivered round of `messages` messages: clears the staged
  /// sends, runs both kTransport audits and counts the round.
  void close_round(std::int64_t messages);

  /// Push: expands the round's records into staged_, one Staged per edge,
  /// in staging order.
  void expand_records();

  /// Counting-sorts deliver_ into the arena (receivers ascending, one
  /// contiguous run each, runs sorted by sender) and fills delivered_,
  /// which retire_delivery() left empty.
  void scatter_serial();

  /// A vertex's broadcast: the round it was staged in (stale in any other
  /// round), read by the cap checks, and its message, read by the pull
  /// fill.
  struct Broadcast {
    std::int64_t round = -1;
    Message msg;
  };
  static_assert(sizeof(Broadcast) == 32,
                "a broadcast-table entry is a round stamp and a message");

  const Graph* graph_ = nullptr;
  // Sends of the current round append to outgoing_ (flat, staging order,
  // one record per broadcast). advance_round() either pulls the round into
  // arena_ (row-aligned: v's run starts at csr_offset(v); addressed by
  // inbox_begin_/inbox_count_) or expands outgoing_ into staged_, hands
  // that to the delivery model, which fills deliver_ (this round's batch),
  // and counting-sorts deliver_ into arena_.
  std::vector<Outgoing> outgoing_;
  std::int64_t pending_sends_ = 0;               // point-to-point records
  std::int64_t pending_broadcast_messages_ = 0;  // sum of deg over broadcasts
  std::vector<Broadcast> broadcast_;             // per vertex
  // Per vertex: the last round it sent point-to-point.
  std::vector<std::int64_t> send_round_;
  std::vector<Staged> staged_;
  std::vector<Staged> deliver_;
  std::vector<Received> arena_;
  std::vector<std::int64_t> inbox_begin_;     // per-vertex offset into arena_
  std::vector<std::int64_t> inbox_count_;     // per-vertex run length
  std::vector<std::int64_t> recv_count_;      // per-vertex batch count (scratch)
  std::vector<Vertex> delivered_;             // nodes with non-empty inbox
  std::int64_t delivered_messages_ = 0;       // size of the current batch
  std::int64_t delivered_total_ = 0;          // cumulative batch messages
  std::int64_t pull_rounds_ = 0;              // rounds delivered by pull
  // Injected-event counters folded in from transports retired by
  // configure_transport, so the conservation ledger survives model swaps.
  std::int64_t retired_dropped_ = 0;
  std::int64_t retired_duplicated_ = 0;
  // Per-directed-edge round stamp for the one-message-per-edge cap; lazily
  // reset by comparing against the current round number.
  std::vector<std::int64_t> edge_round_stamp_;
  NetworkStats stats_;
  // Stage-profile sink for the Scheduler (see set_profile_sink); not owned.
  StageTimes* profile_ = nullptr;
  // The transport policy (never null; Ideal by default), and whether it is
  // the built-in Ideal model, whose batch is the staged traffic itself (the
  // pull rule's first condition).
  std::unique_ptr<DeliveryModel> model_;
  bool builtin_ideal_ = true;
  // Execution policy for the Scheduler (see set_execution_threads).
  int exec_threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace usne::congest
