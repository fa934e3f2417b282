#include "core/spanner_distributed.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "congest/bfs_forest.hpp"
#include "congest/detect.hpp"
#include "congest/engine.hpp"
#include "congest/ruling_set.hpp"
#include "core/task_clock.hpp"

namespace usne {
namespace {

using congest::BfsForest;
using congest::DetectResult;
using congest::Message;
using congest::Network;
using congest::NodeProgram;
using congest::Outbox;
using congest::Received;
using congest::RulingSet;
using congest::Scheduler;
using congest::Word;

constexpr Word kJoinMark = 20;  // <kJoinMark>            up the forest
constexpr Word kPathMark = 21;  // <kPathMark, source>    along pred chains

/// Superclustering mark-up-cast as a NodeProgram: every spanned center
/// holds a mark; marks propagate one hop per round toward the roots with
/// per-vertex dedup, so each tree edge carries at most one kJoinMark ever.
/// Every vertex that held a mark adds its parent edge. Runs exactly
/// `depth_limit` rounds.
///
/// Parallel audit: on_round writes marked_[v] (byte-wide, per-vertex) and
/// stages newly marked vertices in per-shard buffers; the shared spanner
/// graph / edge log / counter are touched only from end_round, where the
/// shard merge (ascending shard = ascending vertex) reproduces the serial
/// edge order exactly.
class MarkUpcastProgram final : public NodeProgram {
 public:
  MarkUpcastProgram(Vertex n, const BfsForest& forest,
                    const std::vector<bool>& is_center, Dist depth_limit,
                    WeightedGraph& h, std::vector<ChargedEdge>* log, int phase,
                    std::int64_t& edge_counter)
      : forest_(forest),
        depth_limit_(depth_limit),
        h_(h),
        log_(log),
        phase_(phase),
        edge_counter_(edge_counter) {
    marked_.assign(static_cast<std::size_t>(n), 0);
    for (Vertex v = 0; v < n; ++v) {
      if (forest.spanned(v) && is_center[static_cast<std::size_t>(v)] &&
          forest.depth[static_cast<std::size_t>(v)] > 0) {
        marked_[static_cast<std::size_t>(v)] = 1;
        fresh_.push_back(v);
      }
    }
    for (const Vertex v : fresh_) add_parent_edge(v);
  }

  void set_shards(std::size_t shards) override { newly_marked_.reset(shards); }

  void init(Outbox& out) override {
    if (depth_limit_ > 0) send_marks(out);
    fresh_.clear();
  }

  void on_round(std::int64_t, Vertex v, std::span<const Received> inbox,
                Outbox& out) override {
    if (marked_[static_cast<std::size_t>(v)]) return;
    bool got_mark = false;
    for (const Received& r : inbox) {
      got_mark |= (r.msg.words[0] == kJoinMark);
    }
    if (got_mark && forest_.spanned(v) &&
        forest_.depth[static_cast<std::size_t>(v)] > 0) {
      marked_[static_cast<std::size_t>(v)] = 1;
      newly_marked_.push(out.shard(), v);
    }
  }

  void end_round(std::int64_t round, Outbox& out) override {
    newly_marked_.drain_into(fresh_);
    for (const Vertex v : fresh_) add_parent_edge(v);
    if (round + 1 < depth_limit_) send_marks(out);
    fresh_.clear();
  }

  bool done(std::int64_t next_round) const override {
    return next_round >= depth_limit_;
  }

 private:
  void send_marks(Outbox& out) {
    for (const Vertex v : fresh_) {
      const Vertex p = forest_.parent[static_cast<std::size_t>(v)];
      if (p != -1) out.send(v, p, Message::of(kJoinMark));
    }
  }

  void add_parent_edge(Vertex v) {
    const Vertex p = forest_.parent[static_cast<std::size_t>(v)];
    if (p == -1) return;
    h_.add_edge(v, p, 1);
    ++edge_counter_;
    if (log_) {
      log_->push_back({std::min(v, p), std::max(v, p), 1, phase_,
                       EdgeKind::kSupercluster, v});
    }
  }

  const BfsForest& forest_;
  Dist depth_limit_;
  WeightedGraph& h_;
  std::vector<ChargedEdge>* log_;
  int phase_;
  std::int64_t& edge_counter_;
  std::vector<std::uint8_t> marked_;
  std::vector<Vertex> fresh_;     // marked this round, send next round
  congest::Sharded<Vertex> newly_marked_;  // per-shard staging for fresh_
};

/// Interconnection path-marking as a NodeProgram: every U_i center sends
/// one kPathMark per neighbouring center along the Algorithm 2 predecessor
/// chain; relays add the edge toward their predecessor and forward. Marks
/// are pipelined one message per edge per round and the program runs until
/// drained (a hard ceiling guards against logic errors only).
///
/// Parallel audit: the relay step (forwarded-set dedup, spanner edge adds,
/// queue pushes) mutates shared state, so on_round only records mark
/// arrivals in per-shard buffers; end_round replays them in ascending
/// shard order — identical to the serial arrival order — before draining
/// the pipeline.
class PathMarksProgram final : public NodeProgram {
 public:
  PathMarksProgram(Vertex n, const DetectResult& det,
                   const std::vector<Vertex>& u_centers, Dist delta,
                   std::int64_t cap, WeightedGraph& h,
                   std::vector<ChargedEdge>* log, int phase,
                   std::int64_t& edge_counter)
      : det_(det),
        h_(h),
        log_(log),
        phase_(phase),
        edge_counter_(edge_counter),
        hard_ceiling_((delta + 2) * (cap + 2) * 16 +
                      static_cast<std::int64_t>(n) + 1024),
        queue_(n) {
    for (const Vertex c : u_centers) {
      for (const SourceHit& hit : det.hits[static_cast<std::size_t>(c)]) {
        if (hit.source == c) continue;
        enqueue(c, hit.source, c);
      }
    }
  }

  void set_shards(std::size_t shards) override { arrivals_.reset(shards); }

  void init(Outbox& out) override {
    if (queue_.queued() == 0) {
      finished_ = true;
      return;
    }
    send_phase(out);
  }

  void on_round(std::int64_t, Vertex v, std::span<const Received> inbox,
                Outbox& out) override {
    for (const Received& r : inbox) {
      if (r.msg.words[0] != kPathMark) continue;
      const Vertex source = static_cast<Vertex>(r.msg.words[1]);
      if (v == source) continue;  // mark arrived
      arrivals_.push(out.shard(), {v, source});
    }
  }

  void end_round(std::int64_t round, Outbox& out) override {
    arrivals_.drain_into(arrival_buf_);
    for (const Arrival& a : arrival_buf_) enqueue(a.at, a.source, a.source);
    arrival_buf_.clear();
    if (queue_.queued() == 0) {
      finished_ = true;
      return;
    }
    if (round + 1 > hard_ceiling_) {
      throw std::logic_error("path_marks failed to drain within its ceiling");
    }
    send_phase(out);
  }

  bool done(std::int64_t) const override { return finished_; }

 private:
  void enqueue(Vertex at, Vertex source, Vertex charged) {
    // Re-forwarding the same source from the same vertex is redundant (the
    // downstream chain is already marked).
    if (!forwarded_.insert(key(at, source)).second) return;
    // The hop toward `source` is this vertex's recorded predecessor.
    const auto& hits = det_.hits[static_cast<std::size_t>(at)];
    const auto it =
        std::find_if(hits.begin(), hits.end(),
                     [&](const SourceHit& s) { return s.source == source; });
    if (it == hits.end() || it->pred == -1) return;  // arrived (or untraceable)
    h_.add_edge(at, it->pred, 1);
    ++edge_counter_;
    if (log_) {
      log_->push_back({std::min(at, it->pred), std::max(at, it->pred), 1,
                       phase_, EdgeKind::kSpannerPath, charged});
    }
    queue_.push(at, it->pred, source);
  }

  void send_phase(Outbox& out) {
    queue_.drain_round([&](Vertex from, Vertex to, Vertex source) {
      out.send(from, to, Message::of(kPathMark, source));
    });
  }

  static std::uint64_t key(Vertex v, Vertex src) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) << 32) |
           static_cast<std::uint32_t>(src);
  }

  /// A kPathMark delivery observed by on_round, relayed in end_round.
  struct Arrival {
    Vertex at;
    Vertex source;
  };

  const DetectResult& det_;
  WeightedGraph& h_;
  std::vector<ChargedEdge>* log_;
  int phase_;
  std::int64_t& edge_counter_;
  std::int64_t hard_ceiling_;
  // Per-vertex queues of (next_hop, source) marks to forward.
  congest::PipelinedQueues<Vertex> queue_;
  std::unordered_set<std::uint64_t> forwarded_;
  congest::Sharded<Arrival> arrivals_;  // per-shard arrival staging
  std::vector<Arrival> arrival_buf_;    // reused merge buffer
  bool finished_ = false;
};

}  // namespace

template <typename Params>
DistributedBuildResult build_spanner_congest(const Graph& g, const Params& params,
                                             const ExecOptions& exec) {
  const Vertex n = g.num_vertices();
  if (params.n != n) {
    throw std::invalid_argument("params were computed for a different n");
  }
  const PhaseSchedule& sched = params.schedule;
  const int ell = sched.ell();

  DistributedBuildResult out;
  out.base.h = WeightedGraph(n);
  out.base.u_level.assign(static_cast<std::size_t>(n), -1);
  out.base.u_center.assign(static_cast<std::size_t>(n), -1);

  Network net(g);
  net.set_execution_threads(exec.num_threads);
  net.configure_transport(exec.transport);
  Scheduler scheduler(net);

  // Construction profiling: one stage-time sink on the network, cut into
  // labeled per-task deltas — the same delta pattern the round metering
  // uses with net.stats().rounds.
  congest::StageTimes prof_acc;
  congest::StageTimes prof_mark;
  if (exec.profile) net.set_profile_sink(&prof_acc);
  const auto prof_snap = [&](int phase, const char* task) {
    if (!exec.profile) return;
    out.base.profile.push_back(
        {profile_label(phase, task), prof_acc - prof_mark});
    prof_mark = prof_acc;
  };

  std::vector<Cluster> current = singleton_partition(n);
  if (exec.keep_audit_data) out.base.partitions.push_back(current);
  std::vector<std::int32_t> cluster_of(static_cast<std::size_t>(n), -1);
  std::vector<bool> is_center(static_cast<std::size_t>(n), false);

  for (int i = 0; i <= ell; ++i) {
    const double deg_i = sched.deg[static_cast<std::size_t>(i)];
    const Dist delta_i = sched.delta[static_cast<std::size_t>(i)];
    const Dist rul_i = params.rul[static_cast<std::size_t>(i)];
    const std::int64_t cap =
        static_cast<std::int64_t>(std::ceil(deg_i - 1e-9)) + 1;

    PhaseStats stats;
    stats.phase = i;
    stats.clusters_in = static_cast<std::int64_t>(current.size());
    stats.deg_threshold = deg_i;
    stats.delta = delta_i;

    std::vector<Vertex> centers;
    for (std::size_t c = 0; c < current.size(); ++c) {
      centers.push_back(current[c].center);
      cluster_of[static_cast<std::size_t>(current[c].center)] =
          static_cast<std::int32_t>(c);
      is_center[static_cast<std::size_t>(current[c].center)] = true;
    }
    std::sort(centers.begin(), centers.end());

    std::int64_t mark = net.stats().rounds;
    const DetectResult det = congest::detect_congest(net, centers, delta_i, cap);
    stats.rounds_detect = net.stats().rounds - mark;
    prof_snap(i, "detect");

    std::vector<Vertex> popular;
    for (const Vertex c : centers) {
      if (static_cast<double>(det.heard_others(c)) + 1e-9 >= deg_i) {
        popular.push_back(c);
      }
    }
    stats.popular = static_cast<std::int64_t>(popular.size());

    std::vector<Cluster> next;
    std::vector<bool> superclustered(static_cast<std::size_t>(n), false);
    if (i < ell && !popular.empty()) {
      mark = net.stats().rounds;
      const RulingSet ruling =
          congest::compute_ruling_set(net, popular, 2 * delta_i, params.ruling_base);
      stats.rounds_ruling = net.stats().rounds - mark;
      prof_snap(i, "ruling");

      mark = net.stats().rounds;
      const BfsForest forest =
          congest::build_bfs_forest(net, ruling.members, rul_i + delta_i);
      stats.rounds_forest = net.stats().rounds - mark;
      prof_snap(i, "forest");

      mark = net.stats().rounds;
      MarkUpcastProgram upcast(n, forest, is_center, rul_i + delta_i,
                               out.base.h,
                               exec.keep_audit_data ? &out.base.edge_log : nullptr,
                               i, stats.supercluster_edges);
      scheduler.run(upcast);
      stats.rounds_backtrack = net.stats().rounds - mark;
      prof_snap(i, "upcast");

      // Supercluster membership (audit bookkeeping; one per tree).
      std::vector<std::int32_t> super_of(static_cast<std::size_t>(n), -1);
      for (const Vertex r : ruling.members) {
        super_of[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(next.size());
        Cluster super;
        super.center = r;
        next.push_back(std::move(super));
      }
      for (const Vertex c : centers) {
        const Vertex root = forest.root[static_cast<std::size_t>(c)];
        if (root == -1) continue;
        Cluster& super =
            next[static_cast<std::size_t>(super_of[static_cast<std::size_t>(root)])];
        const Cluster& joined =
            current[static_cast<std::size_t>(cluster_of[static_cast<std::size_t>(c)])];
        super.members.insert(super.members.end(), joined.members.begin(),
                             joined.members.end());
        superclustered[static_cast<std::size_t>(c)] = true;
      }
    }

    // Interconnection.
    std::vector<Vertex> u_centers;
    for (const Vertex c : centers) {
      if (!superclustered[static_cast<std::size_t>(c)]) u_centers.push_back(c);
    }
    stats.unclustered = static_cast<std::int64_t>(u_centers.size());
    for (const Vertex c : u_centers) {
      const Cluster& cl = current[static_cast<std::size_t>(
          cluster_of[static_cast<std::size_t>(c)])];
      for (const Vertex m : cl.members) {
        out.base.u_level[static_cast<std::size_t>(m)] = i;
        out.base.u_center[static_cast<std::size_t>(m)] = c;
      }
    }
    mark = net.stats().rounds;
    PathMarksProgram marks(n, det, u_centers, delta_i, cap, out.base.h,
                           exec.keep_audit_data ? &out.base.edge_log : nullptr, i,
                           stats.interconnect_edges);
    scheduler.run(marks);
    stats.rounds_interconnect = net.stats().rounds - mark;
    prof_snap(i, "interconnect");

    for (const Vertex c : centers) {
      cluster_of[static_cast<std::size_t>(c)] = -1;
      is_center[static_cast<std::size_t>(c)] = false;
    }
    stats.clusters_out = static_cast<std::int64_t>(next.size());
    stats.rounds = stats.rounds_detect + stats.rounds_ruling +
                   stats.rounds_forest + stats.rounds_backtrack +
                   stats.rounds_interconnect;
    out.base.phases.push_back(stats);
    current = std::move(next);
    if (exec.keep_audit_data) out.base.partitions.push_back(current);
  }

  assert(current.empty());
  net.set_profile_sink(nullptr);
  out.base.total_rounds = net.stats().rounds;
  out.net = net.stats();
  out.transport = net.transport().counters();
  return out;
}

template DistributedBuildResult build_spanner_congest(const Graph&,
                                                      const SpannerParams&,
                                                      const ExecOptions&);
template DistributedBuildResult build_spanner_congest(const Graph&,
                                                      const DistributedParams&,
                                                      const ExecOptions&);

}  // namespace usne
