#include "core/emulator_distributed.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

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

// Message tags used by the backtracking convergecast / notification epochs.
// (Disjoint from the tags of the congest/ primitives.)
constexpr Word kUp = 10;         // <kUp, origin, origin_depth>
constexpr Word kNotify = 11;     // <kNotify, origin, center, weight>  routed
constexpr Word kGroupEdge = 12;  // <kGroupEdge, center, origin, weight>  broadcast

/// An up-travelling convergecast message.
struct UpMsg {
  Vertex origin = -1;
  Dist origin_depth = 0;
};

/// State shared across the helpers of one build.
struct Builder {
  const Graph* g = nullptr;
  const DistributedParams* params = nullptr;
  ExecOptions exec;
  Network net;
  DistributedBuildResult out;

  // Phase-local: clusters of P_i and index-by-center.
  std::vector<Cluster> current;
  std::vector<std::int32_t> cluster_of;  // center -> index in current, else -1
  std::vector<bool> superclustered;      // per center, this phase

  explicit Builder(const Graph& graph) : g(&graph), net(graph) {}

  void log_edge(Vertex u, Vertex v, Dist w, int phase, EdgeKind kind,
                Vertex charged) {
    out.base.h.add_edge(u, v, w);
    if (exec.keep_audit_data) {
      out.base.edge_log.push_back({u, v, w, phase, kind, charged});
    }
  }

  void learn_local(Vertex v, Vertex other, Dist w) {
    auto& list = out.local[static_cast<std::size_t>(v)];
    for (auto& [o, weight] : list) {
      if (o == other) {
        weight = std::min(weight, w);
        return;
      }
    }
    list.emplace_back(other, w);
  }

  bool is_center(Vertex v) const {
    const std::int32_t c = cluster_of[static_cast<std::size_t>(v)];
    return c != -1 && current[static_cast<std::size_t>(c)].center == v;
  }
};

/// State shared between the two engine programs of Task 3's second half:
/// the up-cast collection, per-origin routing, down-cast queues, and the
/// supercluster-forming helpers.
struct BacktrackCtx {
  Builder& b;
  const BfsForest& forest;
  int phase;
  PhaseStats& stats;
  std::vector<Cluster>& next;

  Dist depth_limit = 0;
  std::int64_t hub_threshold = 0;
  std::int64_t stride_rounds = 0;

  std::vector<std::vector<Vertex>> children;
  // Vertices bucketed by tree depth (senders of stride s have depth
  // depth_limit - s).
  std::vector<std::vector<Vertex>> by_depth;
  // Collected messages and per-origin routing (which child delivered it).
  std::vector<std::vector<UpMsg>> collected;
  std::vector<std::map<Vertex, Vertex>> route;
  // Down-notification queues: per (node, neighbour) pipelines.
  congest::PipelinedQueues<Message> down;

  BacktrackCtx(Builder& builder, const BfsForest& f, int ph, double deg,
               PhaseStats& st, std::vector<Cluster>& nxt)
      : b(builder), forest(f), phase(ph), stats(st), next(nxt) {
    const Graph& g = *b.g;
    const Vertex n = g.num_vertices();
    const Dist delta = b.params->schedule.delta[static_cast<std::size_t>(ph)];
    const Dist rul = b.params->rul[static_cast<std::size_t>(ph)];
    depth_limit = rul + delta;
    const std::int64_t capdeg =
        static_cast<std::int64_t>(std::ceil(deg - 1e-9));
    const std::int64_t factor = b.exec.hub_threshold_factor;
    hub_threshold = factor * capdeg + 2;
    stride_rounds = factor * capdeg + 2;

    children = forest.children();
    by_depth.resize(static_cast<std::size_t>(depth_limit) + 1);
    for (Vertex v = 0; v < n; ++v) {
      if (forest.spanned(v) && forest.depth[static_cast<std::size_t>(v)] > 0) {
        by_depth[static_cast<std::size_t>(
                     forest.depth[static_cast<std::size_t>(v)])]
            .push_back(v);
      }
    }
    collected.resize(static_cast<std::size_t>(n));
    route.resize(static_cast<std::size_t>(n));
    down.resize(n);
    // Seed: every spanned center holds its own message.
    for (Vertex v = 0; v < n; ++v) {
      if (forest.spanned(v) && b.is_center(v)) {
        collected[static_cast<std::size_t>(v)].push_back(
            {v, forest.depth[static_cast<std::size_t>(v)]});
      }
    }
  }

  void enqueue_down(Vertex from, Vertex to, const Message& m) {
    down.push(from, to, m);
  }

  Cluster& new_super(Vertex center) {
    Cluster c;
    c.center = center;
    next.push_back(std::move(c));
    return next.back();
  }

  void join(Cluster& super, Vertex origin) {
    const Cluster& cl = b.current[static_cast<std::size_t>(
        b.cluster_of[static_cast<std::size_t>(origin)])];
    super.members.insert(super.members.end(), cl.members.begin(),
                         cl.members.end());
    b.superclustered[static_cast<std::size_t>(origin)] = true;
  }
};

/// The backtracking convergecast (Task 3 second half, up direction) as a
/// NodeProgram: depth_limit strides of stride_rounds rounds. At each stride
/// boundary the next depth layer makes its hub decisions centrally (a hub
/// splits and forms superclusters on the spot); within a stride the
/// surviving senders pipeline one collected <origin, depth> message per
/// round toward their parents.
///
/// Parallel audit: on_round appends only to collected[v] and route[v] —
/// state keyed by the receiving vertex — so the fan-out is race-free as
/// is. Hub decisions and all shared-state mutation live in end_round
/// (serial).
class BacktrackProgram final : public NodeProgram {
 public:
  explicit BacktrackProgram(BacktrackCtx& ctx)
      : ctx_(ctx), total_rounds_(ctx.depth_limit * ctx.stride_rounds) {}

  void init(Outbox& out) override {
    if (total_rounds_ == 0) return;
    hub_decide(0);
    send_entries(0, out);
  }

  void on_round(std::int64_t, Vertex v, std::span<const Received> inbox,
                Outbox&) override {
    for (const Received& r : inbox) {
      if (r.msg.words[0] != kUp) continue;
      const Vertex origin = static_cast<Vertex>(r.msg.words[1]);
      ctx_.collected[static_cast<std::size_t>(v)].push_back(
          {origin, r.msg.words[2]});
      ctx_.route[static_cast<std::size_t>(v)][origin] = r.from;
    }
  }

  void end_round(std::int64_t round, Outbox& out) override {
    if (round + 1 >= total_rounds_) return;
    const std::int64_t t = round % ctx_.stride_rounds;
    if (t == ctx_.stride_rounds - 1) {
      hub_decide(round / ctx_.stride_rounds + 1);
      send_entries(0, out);
    } else {
      send_entries(t + 1, out);
    }
  }

  bool done(std::int64_t next_round) const override {
    return next_round >= total_rounds_;
  }

 private:
  void send_entries(std::int64_t t, Outbox& out) {
    for (const auto& [v, msgs] : to_send_) {
      if (static_cast<std::int64_t>(msgs.size()) > t) {
        const UpMsg& um = msgs[static_cast<std::size_t>(t)];
        out.send(v, ctx_.forest.parent[static_cast<std::size_t>(v)],
                 Message::of(kUp, um.origin, um.origin_depth));
      }
    }
  }

  /// Hub decisions for stride `s` happen at send time: a sender holding >=
  /// hub_threshold messages splits from its tree and forms superclusters
  /// locally instead of forwarding.
  void hub_decide(Dist s) {
    BacktrackCtx& c = ctx_;
    Builder& b = c.b;
    const Dist sender_depth = c.depth_limit - s;
    const auto& senders = c.by_depth[static_cast<std::size_t>(sender_depth)];

    to_send_.clear();
    for (const Vertex v : senders) {
      auto& m = c.collected[static_cast<std::size_t>(v)];
      if (m.empty()) continue;
      if (static_cast<std::int64_t>(m.size()) < c.hub_threshold) {
        to_send_.emplace_back(v, std::move(m));
        m.clear();
        continue;
      }

      // --- v is a hub. ---
      ++c.stats.hub_events;
      const Dist dv = c.forest.depth[static_cast<std::size_t>(v)];
      if (b.is_center(v)) {
        // v forms a single supercluster around itself.
        Cluster& super = c.new_super(v);
        c.join(super, v);
        for (const UpMsg& um : m) {
          if (um.origin == v) continue;
          const Dist w = um.origin_depth - dv;
          b.log_edge(v, um.origin, w, c.phase, EdgeKind::kSupercluster,
                     um.origin);
          ++c.stats.supercluster_edges;
          b.learn_local(v, um.origin, w);
          c.join(super, um.origin);
          c.enqueue_down(v, c.route[static_cast<std::size_t>(v)][um.origin],
                         Message::of(kNotify, um.origin, v, w));
        }
      } else {
        // Partition children greedily into groups of message count in
        // [2deg+2, 6deg+6]; one supercluster per group.
        std::map<Vertex, std::vector<UpMsg>> per_child;
        for (const UpMsg& um : m) {
          per_child[c.route[static_cast<std::size_t>(v)][um.origin]].push_back(
              um);
        }
        std::vector<std::vector<Vertex>> groups;  // children per group
        std::vector<std::int64_t> group_count;
        groups.emplace_back();
        group_count.push_back(0);
        for (const auto& [child, msgs] : per_child) {
          groups.back().push_back(child);
          group_count.back() += static_cast<std::int64_t>(msgs.size());
          if (group_count.back() >= c.hub_threshold) {
            groups.emplace_back();
            group_count.push_back(0);
          }
        }
        if (group_count.back() < c.hub_threshold && groups.size() > 1) {
          // Merge the underfull tail group into its predecessor.
          auto tail = std::move(groups.back());
          groups.pop_back();
          group_count[groups.size() - 1] += group_count.back();
          group_count.pop_back();
          for (const Vertex child : tail) groups.back().push_back(child);
        }
        for (const auto& group : groups) {
          // Z_j: origins delivered via this group's children.
          std::vector<UpMsg> z;
          for (const Vertex child : group) {
            const auto& msgs = per_child[child];
            z.insert(z.end(), msgs.begin(), msgs.end());
          }
          if (z.empty()) continue;
          const Vertex r =
              std::min_element(z.begin(), z.end(),
                               [](const UpMsg& a, const UpMsg& x) {
                                 return a.origin < x.origin;
                               })
                  ->origin;
          Dist r_depth = 0;
          for (const UpMsg& um : z) {
            if (um.origin == r) r_depth = um.origin_depth;
          }
          Cluster& super = c.new_super(r);
          for (const UpMsg& um : z) {
            c.join(super, um.origin);
            if (um.origin == r) continue;
            const Dist w = (um.origin_depth - dv) + (r_depth - dv);
            b.log_edge(r, um.origin, w, c.phase, EdgeKind::kSupercluster,
                       um.origin);
            ++c.stats.supercluster_edges;
          }
          // Broadcast <center, origin, weight> down the group's subtrees;
          // every member of Z_j (including r) learns its part.
          for (const Vertex child : group) {
            for (const UpMsg& um : z) {
              if (um.origin == r) continue;
              const Dist w = (um.origin_depth - dv) + (r_depth - dv);
              c.enqueue_down(v, child, Message::of(kGroupEdge, r, um.origin, w));
            }
          }
        }
      }
      m.clear();
    }
  }

  BacktrackCtx& ctx_;
  std::int64_t total_rounds_ = 0;
  std::vector<std::pair<Vertex, std::vector<UpMsg>>> to_send_;
};

/// The notification epoch (Task 3 down direction) as a NodeProgram: routed
/// kNotify messages retrace the convergecast routes to their origins and
/// kGroupEdge broadcasts flood whole subtrees, all pipelined one message
/// per edge per round. The schedule is fixed (depth_limit + 4*factor*capdeg
/// + 16 rounds) but ends early once every queue has drained.
///
/// Parallel audit: on_round writes b.out.local[v] (per-vertex) and pushes
/// into the down-cast pipeline keyed by v — PipelinedQueues::push is safe
/// for concurrent distinct sources (atomic item counter). route/children
/// are only read here.
class NotifyProgram final : public NodeProgram {
 public:
  NotifyProgram(BacktrackCtx& ctx, std::int64_t epoch)
      : ctx_(ctx), epoch_(epoch) {}

  void init(Outbox& out) override { send_phase(out); }

  void on_round(std::int64_t, Vertex v, std::span<const Received> inbox,
                Outbox&) override {
    BacktrackCtx& c = ctx_;
    for (const Received& r : inbox) {
      const Word tag = r.msg.words[0];
      if (tag == kNotify) {
        const Vertex origin = static_cast<Vertex>(r.msg.words[1]);
        const Vertex center = static_cast<Vertex>(r.msg.words[2]);
        const Dist w = r.msg.words[3];
        if (origin == v) {
          c.b.learn_local(v, center, w);
        } else {
          c.enqueue_down(v, c.route[static_cast<std::size_t>(v)][origin],
                         r.msg);
        }
      } else if (tag == kGroupEdge) {
        const Vertex center = static_cast<Vertex>(r.msg.words[1]);
        const Vertex origin = static_cast<Vertex>(r.msg.words[2]);
        const Dist w = r.msg.words[3];
        if (v == center) c.b.learn_local(v, origin, w);
        if (v == origin) c.b.learn_local(v, center, w);
        for (const Vertex child : c.children[static_cast<std::size_t>(v)]) {
          c.enqueue_down(v, child, r.msg);
        }
      }
    }
  }

  void end_round(std::int64_t round, Outbox& out) override {
    if ((!any_sent_ && ctx_.down.queued() == 0) || round + 1 >= epoch_) {
      finished_ = true;
      return;
    }
    send_phase(out);
  }

  bool done(std::int64_t) const override { return finished_; }

 private:
  void send_phase(Outbox& out) {
    any_sent_ = ctx_.down.drain_round(
        [&](Vertex from, Vertex to, const Message& msg) {
          out.send(from, to, msg);
        });
  }

  BacktrackCtx& ctx_;
  std::int64_t epoch_;
  bool any_sent_ = false;
  bool finished_ = false;
};

/// Runs the backtracking convergecast with hub splitting (Task 3 second
/// half) through the engine. Fills `next` with the new superclusters and
/// marks joined centers.
void backtrack_superclusters(Builder& b, const BfsForest& forest, int phase,
                             double deg, PhaseStats& stats,
                             std::vector<Cluster>& next) {
  BacktrackCtx ctx(b, forest, phase, deg, stats, next);
  Scheduler scheduler(b.net);

  // ---- Strides (up-cast) ----
  BacktrackProgram up(ctx);
  scheduler.run(up);

  // ---- Root consumption ----
  const Vertex n = b.g->num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    if (!forest.spanned(v) || forest.depth[static_cast<std::size_t>(v)] != 0) {
      continue;
    }
    auto& m = ctx.collected[static_cast<std::size_t>(v)];
    // The root is popular (ruling set member), so it always forms its
    // supercluster, even if every neighbour was consumed by hubs.
    Cluster& super = ctx.new_super(v);
    if (b.is_center(v)) ctx.join(super, v);
    for (const UpMsg& um : m) {
      if (um.origin == v) continue;
      const Dist w = um.origin_depth;  // root depth is 0; exact BFS distance
      b.log_edge(v, um.origin, w, phase, EdgeKind::kSupercluster, um.origin);
      ++stats.supercluster_edges;
      b.learn_local(v, um.origin, w);
      ctx.join(super, um.origin);
      ctx.enqueue_down(v, ctx.route[static_cast<std::size_t>(v)][um.origin],
                       Message::of(kNotify, um.origin, v, w));
    }
    m.clear();
  }

  // ---- Notification epoch (down-cast) ----
  const std::int64_t capdeg = static_cast<std::int64_t>(std::ceil(deg - 1e-9));
  const std::int64_t factor = b.exec.hub_threshold_factor;
  const std::int64_t epoch = ctx.depth_limit + 4 * factor * capdeg + 16;
  NotifyProgram down(ctx, epoch);
  scheduler.run(down);

  // Drain check: all queues must be empty within the fixed epoch — under
  // lossless synchronous delivery. A faulty/async transport may delay
  // arrivals past the epoch, legitimately marooning queued notifications.
  assert(ctx.down.queued() == 0 || !b.net.transport().ideal());
}

}  // namespace

DistributedBuildResult build_emulator_distributed(
    const Graph& g, const DistributedParams& params, const ExecOptions& exec) {
  const Vertex n = g.num_vertices();
  if (params.n != n) {
    throw std::invalid_argument("params were computed for a different n");
  }
  if (exec.hub_threshold_factor < 1) {
    throw std::invalid_argument("hub_threshold_factor must be >= 1");
  }
  const PhaseSchedule& sched = params.schedule;
  const int ell = sched.ell();

  Builder b(g);
  b.params = &params;
  b.exec = exec;
  b.net.set_execution_threads(exec.num_threads);
  b.net.configure_transport(exec.transport);
  b.out.base.h = WeightedGraph(n);
  b.out.base.u_level.assign(static_cast<std::size_t>(n), -1);
  b.out.base.u_center.assign(static_cast<std::size_t>(n), -1);
  b.out.local.assign(static_cast<std::size_t>(n), {});
  b.cluster_of.assign(static_cast<std::size_t>(n), -1);

  b.current = singleton_partition(n);
  if (exec.keep_audit_data) b.out.base.partitions.push_back(b.current);

  // Construction profiling: the schedulers of every task accumulate stage
  // times into one sink on the network; prof_snap cuts a labeled per-task
  // delta — the exact pattern the round metering below uses with
  // b.net.stats().rounds.
  congest::StageTimes prof_acc;
  congest::StageTimes prof_mark;
  if (exec.profile) b.net.set_profile_sink(&prof_acc);
  const auto prof_snap = [&](int phase, const char* task) {
    if (!exec.profile) return;
    b.out.base.profile.push_back(
        {profile_label(phase, task), prof_acc - prof_mark});
    prof_mark = prof_acc;
  };

  for (int i = 0; i <= ell; ++i) {
    const double deg_i = sched.deg[static_cast<std::size_t>(i)];
    const Dist delta_i = sched.delta[static_cast<std::size_t>(i)];
    const std::int64_t cap =
        static_cast<std::int64_t>(std::ceil(deg_i - 1e-9)) + 1;

    PhaseStats stats;
    stats.phase = i;
    stats.clusters_in = static_cast<std::int64_t>(b.current.size());
    stats.deg_threshold = deg_i;
    stats.delta = delta_i;

    std::vector<Vertex> centers;
    for (std::size_t c = 0; c < b.current.size(); ++c) {
      centers.push_back(b.current[c].center);
      b.cluster_of[static_cast<std::size_t>(b.current[c].center)] =
          static_cast<std::int32_t>(c);
    }
    std::sort(centers.begin(), centers.end());
    b.superclustered.assign(static_cast<std::size_t>(n), false);

    // Task 1: popular-cluster detection.
    std::int64_t mark = b.net.stats().rounds;
    const DetectResult det1 = congest::detect_congest(b.net, centers, delta_i, cap);
    stats.rounds_detect = b.net.stats().rounds - mark;
    prof_snap(i, "detect");

    std::vector<Vertex> popular;
    for (const Vertex c : centers) {
      if (static_cast<double>(det1.heard_others(c)) + 1e-9 >= deg_i) {
        popular.push_back(c);
      }
    }
    stats.popular = static_cast<std::int64_t>(popular.size());

    std::vector<Cluster> next;
    if (i < ell && !popular.empty()) {
      // Task 2: ruling set.
      mark = b.net.stats().rounds;
      const RulingSet ruling = congest::compute_ruling_set(
          b.net, popular, 2 * delta_i, params.ruling_base);
      stats.rounds_ruling = b.net.stats().rounds - mark;
      prof_snap(i, "ruling");

      // Task 3: BFS forest + backtracking with hub splitting.
      mark = b.net.stats().rounds;
      const Dist rul_i = params.rul[static_cast<std::size_t>(i)];
      const BfsForest forest =
          congest::build_bfs_forest(b.net, ruling.members, rul_i + delta_i);
      stats.rounds_forest = b.net.stats().rounds - mark;
      prof_snap(i, "forest");

      mark = b.net.stats().rounds;
      backtrack_superclusters(b, forest, i, deg_i, stats, next);
      stats.rounds_backtrack = b.net.stats().rounds - mark;
      prof_snap(i, "backtrack");
    }

    // Interconnection. U_i = clusters never superclustered.
    std::vector<Vertex> u_centers;
    for (const Vertex c : centers) {
      if (!b.superclustered[static_cast<std::size_t>(c)]) u_centers.push_back(c);
    }
    stats.unclustered = static_cast<std::int64_t>(u_centers.size());

    mark = b.net.stats().rounds;
    if (i < ell) {
      // Second detection run so the non-U side learns the edges too.
      const DetectResult det2 =
          congest::detect_congest(b.net, u_centers, delta_i, cap);
      for (const Vertex c : u_centers) {
        const Cluster& cl = b.current[static_cast<std::size_t>(
            b.cluster_of[static_cast<std::size_t>(c)])];
        for (const Vertex m : cl.members) {
          b.out.base.u_level[static_cast<std::size_t>(m)] = i;
          b.out.base.u_center[static_cast<std::size_t>(m)] = c;
        }
        for (const SourceHit& h : det1.hits[static_cast<std::size_t>(c)]) {
          if (h.source == c) continue;
          b.log_edge(c, h.source, h.dist, i, EdgeKind::kInterconnect, c);
          ++stats.interconnect_edges;
          b.learn_local(c, h.source, h.dist);
        }
      }
      // Reverse knowledge from det2.
      for (const Vertex c : centers) {
        for (const SourceHit& h : det2.hits[static_cast<std::size_t>(c)]) {
          if (h.source == c) continue;
          b.learn_local(c, h.source, h.dist);
        }
      }
    } else {
      // Last phase: everyone is in U_ell; det1 already gave symmetric
      // knowledge (all clusters unpopular).
      for (const Vertex c : u_centers) {
        const Cluster& cl = b.current[static_cast<std::size_t>(
            b.cluster_of[static_cast<std::size_t>(c)])];
        for (const Vertex m : cl.members) {
          b.out.base.u_level[static_cast<std::size_t>(m)] = i;
          b.out.base.u_center[static_cast<std::size_t>(m)] = c;
        }
        for (const SourceHit& h : det1.hits[static_cast<std::size_t>(c)]) {
          if (h.source == c) continue;
          b.log_edge(c, h.source, h.dist, i, EdgeKind::kInterconnect, c);
          ++stats.interconnect_edges;
          b.learn_local(c, h.source, h.dist);
        }
      }
    }
    stats.rounds_interconnect = b.net.stats().rounds - mark;
    prof_snap(i, "interconnect");

    for (const Vertex c : centers) b.cluster_of[static_cast<std::size_t>(c)] = -1;
    stats.clusters_out = static_cast<std::int64_t>(next.size());
    stats.rounds = stats.rounds_detect + stats.rounds_ruling +
                   stats.rounds_forest + stats.rounds_backtrack +
                   stats.rounds_interconnect;
    b.out.base.phases.push_back(stats);
    b.current = std::move(next);
    if (exec.keep_audit_data) b.out.base.partitions.push_back(b.current);
  }

  assert(b.current.empty());
  b.net.set_profile_sink(nullptr);
  b.out.base.total_rounds = b.net.stats().rounds;
  b.out.net = b.net.stats();
  b.out.transport = b.net.transport().counters();
  return std::move(b.out);
}

}  // namespace usne
