#pragma once

// CONGEST execution engine: NodeProgram + Scheduler.
//
// Every distributed algorithm in this repository is a NodeProgram — a
// node-local protocol described by three hooks:
//
//   init(out)                 seed per-node state and the first round's
//                             sends;
//   on_round(r, v, inbox, out) per-vertex delivery callback, invoked once
//                             for every vertex with a non-empty inbox
//                             (ascending vertex order) after round r's
//                             delivery; sends issued here arrive next round;
//   end_round(r, out)         central end-of-round hook for schedule-driven
//                             sends and stride boundaries (a real CONGEST
//                             node derives these from its local round
//                             counter; centralizing them keeps the
//                             simulation honest and the code short);
//   done(next_round)          schedule exhaustion test, checked before each
//                             round.
//
// The Scheduler is the only component that calls Network::advance_round():
// it owns round advancement, meters idle rounds (rounds delivering no
// message with nothing in flight — fixed schedules burn them
// deliberately), and reports the traffic accrued by the program. Hosting
// every algorithm on this one driver is what lets the engine evolve
// without touching algorithm code — the parallel fan-out and the
// pluggable transport layer (congest/transport.hpp) both arrived without
// changing a single NodeProgram.
//
// Transports. The Network's DeliveryModel may drop, duplicate, or delay
// staged messages (Faulty/Async); programs keep their fixed schedules and
// simply observe degraded traffic. Quiescence generalizes accordingly: at
// program end, the Scheduler drains any staged or in-flight messages under
// a non-ideal transport (those rounds count toward the report); under the
// Ideal transport leftover staged messages remain a loud CongestViolation
// (a program bug, not a transport effect).
//
// Parallel execution. The model is bulk-synchronous: every on_round call
// within a round is logically concurrent, so when the Network carries an
// execution policy of T > 1 lanes (Network::set_execution_threads) the
// Scheduler partitions delivered_to() into contiguous chunks — several per
// lane, with boundaries weighted by delivered-message count so skewed inbox
// sizes (hubs) do not unbalance the round — and fans the on_round calls out
// across a persistent thread pool, whose shared task cursor lets idle lanes
// steal remaining chunks. Each chunk stages its sends in its own Outbox;
// the Scheduler then replays the staged sends into the Network in ascending
// chunk order, which reproduces the serial staging order (ascending
// receiver, per-vertex send order) exactly — round/message/word counts,
// delivery order, and every algorithm output are bit-for-bit identical to
// the serial engine, for any lane or chunk count.
//
// Pulled rounds under a parallel policy. A dense broadcast-only round that
// the Network delivers by pull (see congest/network.hpp) is filled by the
// lanes themselves, not by advance_round(): the Scheduler cuts [0, n) once
// per run into contiguous vertex ranges, kChunksPerLane per lane, each
// holding about the same share of the CSR rows, and each range's task
// fills its vertices' inboxes and then runs their on_round into its
// staging Outbox. The ranges' receivers, concatenated in range order,
// become delivered_to(); the replay, its audit and the stage attribution
// are the push rounds' own, and the Network's conservation audits run once
// every lane has finished. This is sound only because staged sends wait
// for the replay: the fill reads each sender's entry in the broadcast
// table, and a broadcast restamps that entry for the next round. So under
// the serial policy, where on_round sends straight into the network,
// advance_round() fills the whole round before the first on_round runs.
// Both use the one fill function, over [0, n) or over one range.
//
// The on_round contract under parallelism: a handler may freely mutate
// state owned by its vertex v (per-vertex arrays, collected[v], queue
// pushes keyed by v) and may send through its Outbox, but any accumulation
// into a container shared across vertices must go through per-shard
// buffers (see Sharded<T>) merged deterministically in end_round. Programs
// are told the shard count via set_shards before init.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "congest/network.hpp"

namespace usne::congest {

/// Send facade handed to programs. Programs transmit through this and never
/// touch round advancement (that is the Scheduler's job).
///
/// Two modes: direct (serial execution and the init/end_round hooks —
/// sends go straight to the network) and staging (the parallel on_round
/// fan-out — each worker buffers its sends locally as Outgoing records,
/// one per send and one per broadcast, and the Scheduler replays them into
/// the network in ascending shard order: a send through Network::send, a
/// broadcast through Network::broadcast, so the replay stages the same
/// records a serial run would).
class Outbox {
 public:
  /// Direct mode.
  explicit Outbox(Network& net) : net_(&net), graph_(&net.graph()) {}

  /// Staging mode for parallel shard `shard` (constructed by the
  /// Scheduler).
  Outbox(const Graph& g, std::size_t shard) : graph_(&g), shard_(shard) {}

  /// Which parallel shard this outbox serves; 0 in serial execution and in
  /// the central hooks. Programs accumulating into shared containers from
  /// on_round use this to index per-shard buffers.
  std::size_t shard() const noexcept { return shard_; }

  void send(Vertex from, Vertex to, const Message& msg) {
    if (net_ != nullptr) {
      net_->send(from, to, msg);
    } else {
      staged_.push_back({from, to, msg});
    }
  }

  void broadcast(Vertex from, const Message& msg) {
    if (net_ != nullptr) {
      net_->broadcast(from, msg);
      return;
    }
    check_sender(*graph_, from, "broadcast");
    staged_.push_back({from, kAllNeighbours, msg});
  }

 private:
  friend class Scheduler;

  /// Messages the staged records stand for (a broadcast counts deg(from)):
  /// the Scheduler's staged-send conservation audit.
  std::int64_t staged_messages() const {
    std::int64_t messages = 0;
    for (const Outgoing& s : staged_) {
      messages += s.to == kAllNeighbours ? graph_->degree(s.from) : 1;
    }
    return messages;
  }

  /// Replays the staged records into `net` in staging order (Scheduler
  /// only). Runs the same cap checks a direct send or broadcast would, in
  /// the same order the serial engine would have run them.
  void replay_into(Network& net) {
    for (const Outgoing& s : staged_) {
      if (s.to == kAllNeighbours) {
        net.broadcast(s.from, s.msg);
      } else {
        net.send(s.from, s.to, s.msg);
      }
    }
    staged_.clear();
  }

  Network* net_ = nullptr;
  const Graph* graph_ = nullptr;
  std::size_t shard_ = 0;
  std::vector<Outgoing> staged_;
};

/// A node-local synchronous protocol. See the file comment for the hook
/// contract. Rounds are numbered from 0 relative to the program's start.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once by the Scheduler before init: the number of parallel
  /// shards the on_round fan-out will use (1 under serial execution).
  /// Programs that accumulate into containers shared across vertices
  /// allocate one buffer per shard here (see Sharded<T>).
  virtual void set_shards(std::size_t shards) { (void)shards; }

  /// Seeds node state and the sends of round 0. Runs serially.
  virtual void init(Outbox& out) = 0;

  /// Delivery callback for round `round`: v's inbox, sorted by sender.
  /// May run concurrently with other vertices' calls — see the parallel
  /// contract in the file comment.
  virtual void on_round(std::int64_t round, Vertex v,
                        std::span<const Received> inbox, Outbox& out) = 0;

  /// Central hook after all on_round calls of `round`. Runs serially.
  virtual void end_round(std::int64_t round, Outbox& out) {
    (void)round;
    (void)out;
  }

  /// True when the schedule is exhausted; `next_round` is the 0-based index
  /// of the round that would run next.
  virtual bool done(std::int64_t next_round) const = 0;
};

/// What one program execution cost.
struct ScheduleReport {
  std::int64_t rounds = 0;       ///< rounds driven for this program
  std::int64_t idle_rounds = 0;  ///< rounds that delivered no message
  NetworkStats traffic;          ///< stats accrued while the program ran
};

/// Per-shard append buffers for on_round handlers that would otherwise push
/// into one shared vector. push() is safe to call concurrently for distinct
/// shards; drain_into() (serial, from end_round) concatenates the buffers
/// in ascending shard order. Because shard s covers a contiguous ascending
/// vertex range, the drained order equals the serial push order exactly.
template <typename T>
class Sharded {
 public:
  /// (Re)allocates `shards` empty buffers; call from set_shards.
  void reset(std::size_t shards) {
    buffers_.clear();
    buffers_.resize(shards);
  }

  void push(std::size_t shard, T value) {
    buffers_[shard].items.push_back(std::move(value));
  }

  /// Appends every buffer to `dst` in ascending shard order and clears
  /// them.
  void drain_into(std::vector<T>& dst) {
    for (Buffer& b : buffers_) {
      dst.insert(dst.end(), std::make_move_iterator(b.items.begin()),
                 std::make_move_iterator(b.items.end()));
      b.items.clear();
    }
  }

 private:
  // Cache-line aligned so concurrent shard pushes do not contend on the
  // vector headers.
  struct alignas(64) Buffer {
    std::vector<T> items;
  };
  std::vector<Buffer> buffers_;
};

/// Per-vertex pipelined send queues for down-cast protocols (the emulator
/// notification epoch, the spanner path marks). Each drain_round call
/// models one CONGEST round: every vertex dispatches at most one queued
/// item per distinct neighbour and defers the rest, so the per-edge cap
/// holds by construction.
///
/// push() is safe to call concurrently from the parallel on_round fan-out
/// as long as each caller pushes with its own vertex as `from` (distinct
/// queues; the item counter is atomic). drain_round is serial-only.
template <typename Payload>
class PipelinedQueues {
 public:
  explicit PipelinedQueues(Vertex n = 0) { resize(n); }

  void resize(Vertex n) {
    queues_.resize(static_cast<std::size_t>(n));
    dest_stamp_.assign(static_cast<std::size_t>(n), 0);
  }

  void push(Vertex from, Vertex to, Payload payload) {
    queues_[static_cast<std::size_t>(from)].push_back(
        {to, std::move(payload)});
    queued_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Items still queued (excluding anything already handed to `send`).
  std::int64_t queued() const noexcept {
    return queued_.load(std::memory_order_relaxed);
  }

  /// One pipelined round: dispatches through send(from, to, payload).
  /// Returns true if anything was sent. Destination bookkeeping is a
  /// per-source round stamp, so a round costs O(items scanned), not
  /// O(destinations-served^2) as a membership list would.
  template <typename SendFn>
  bool drain_round(SendFn&& send) {
    bool any = false;
    for (std::size_t v = 0; v < queues_.size(); ++v) {
      auto& queue = queues_[v];
      if (queue.empty()) continue;
      ++stamp_;  // opens this source's service window
      deferred_.clear();
      while (!queue.empty()) {
        std::pair<Vertex, Payload> item = std::move(queue.front());
        queue.pop_front();
        std::int64_t& last = dest_stamp_[static_cast<std::size_t>(item.first)];
        if (last == stamp_) {  // destination already served this round
          deferred_.push_back(std::move(item));
          continue;
        }
        last = stamp_;
        queued_.fetch_sub(1, std::memory_order_relaxed);
        send(static_cast<Vertex>(v), item.first, item.second);
        any = true;
      }
      for (auto& d : deferred_) queue.push_back(std::move(d));
      deferred_.clear();
    }
    return any;
  }

 private:
  std::vector<std::deque<std::pair<Vertex, Payload>>> queues_;
  std::atomic<std::int64_t> queued_{0};
  // Per-destination stamp of the last (source, round) window that served
  // it; windows are numbered by stamp_, monotonically across rounds.
  std::vector<std::int64_t> dest_stamp_;
  std::int64_t stamp_ = 0;
  std::vector<std::pair<Vertex, Payload>> deferred_;  // reused round buffer
};

/// Drives NodePrograms over a Network. Several programs may run back to
/// back on the same network (the phases of the emulator construction do);
/// stats accumulate across them in Network::stats() while each report
/// carries the per-program delta.
///
/// Execution policy comes from the Network (set_execution_threads): with
/// T > 1 lanes the on_round fan-out of sufficiently large rounds (by
/// receiver fan-out AND delivered-message count — small rounds cannot
/// amortize the fork/join handshake) runs on the network's persistent
/// thread pool, and so does the fill of a large pulled round (see the file
/// comment), bit-for-bit equivalent to serial execution. At program end
/// the Scheduler verifies quiescence: under the Ideal transport it throws
/// CongestViolation if staged messages remain (they would silently leak
/// into the next program on the same network); under Faulty/Async it
/// drains staged and in-flight traffic deterministically instead.
class Scheduler {
 public:
  explicit Scheduler(Network& net) : net_(&net) {}

  Network& net() noexcept { return *net_; }

  /// Runs `program` to completion. The Scheduler performs every
  /// advance_round call; the program only sends.
  ScheduleReport run(NodeProgram& program);

 private:
  Network* net_;
};

}  // namespace usne::congest
