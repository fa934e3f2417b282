#include "core/emulator_distributed.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <utility>

#include "congest/engine.hpp"
#include "core/phase_loop.hpp"

namespace usne {
namespace {

using congest::BfsForest;
using congest::DetectResult;
using congest::Message;
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

/// Records that v learned the emulator edge (v, other, w) from a message.
void learn_local(DistributedBuildResult& out, Vertex v, Vertex other, Dist w) {
  auto& list = out.local[static_cast<std::size_t>(v)];
  for (auto& [o, weight] : list) {
    if (o == other) {
      weight = std::min(weight, w);
      return;
    }
  }
  list.emplace_back(other, w);
}

/// State shared between the two engine programs of Task 3's second half:
/// the up-cast collection, per-origin routing and down-cast queues.
struct BacktrackCtx {
  CongestBuild& b;
  const BfsForest& forest;

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

  BacktrackCtx(CongestBuild& builder, const BfsForest& f)
      : b(builder), forest(f) {
    const Vertex n = b.g.num_vertices();
    depth_limit = b.depth;
    const std::int64_t capdeg = b.cap - 1;
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

  /// v forms one supercluster around itself from the messages it holds,
  /// and routes each origin its edge: a hub that is a center, or a forest
  /// root at depth 0. A root is popular (a ruling-set member), so it forms
  /// its supercluster even when every neighbour was consumed by hubs; it
  /// joins it when it is a center.
  void consume_at_center(Vertex v) {
    auto& m = collected[static_cast<std::size_t>(v)];
    const Dist dv = forest.depth[static_cast<std::size_t>(v)];
    Cluster& super = b.new_super(v);
    if (b.is_center(v)) b.join(super, v);
    for (const UpMsg& um : m) {
      if (um.origin == v) continue;
      const Dist w = um.origin_depth - dv;
      b.log_edge(v, um.origin, w, EdgeKind::kSupercluster, um.origin);
      ++b.stats.supercluster_edges;
      learn_local(b.out, v, um.origin, w);
      b.join(super, um.origin);
      enqueue_down(v, route[static_cast<std::size_t>(v)][um.origin],
                   Message::of(kNotify, um.origin, v, w));
    }
    m.clear();
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
    CongestBuild& b = c.b;
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
      ++b.stats.hub_events;
      const Dist dv = c.forest.depth[static_cast<std::size_t>(v)];
      if (b.is_center(v)) {
        c.consume_at_center(v);  // a single supercluster around v
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
          Cluster& super = b.new_super(r);
          for (const UpMsg& um : z) {
            b.join(super, um.origin);
            if (um.origin == r) continue;
            const Dist w = (um.origin_depth - dv) + (r_depth - dv);
            b.log_edge(r, um.origin, w, EdgeKind::kSupercluster, um.origin);
            ++b.stats.supercluster_edges;
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
          learn_local(c.b.out, v, center, w);
        } else {
          c.enqueue_down(v, c.route[static_cast<std::size_t>(v)][origin],
                         r.msg);
        }
      } else if (tag == kGroupEdge) {
        const Vertex center = static_cast<Vertex>(r.msg.words[1]);
        const Vertex origin = static_cast<Vertex>(r.msg.words[2]);
        const Dist w = r.msg.words[3];
        if (v == center) learn_local(c.b.out, v, origin, w);
        if (v == origin) learn_local(c.b.out, v, center, w);
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

/// Task 3 after the forest: the backtracking convergecast with hub
/// splitting, then the notification epoch. Fills b.next with the new
/// superclusters and marks joined centers.
void backtrack_superclusters(CongestBuild& b, const RulingSet&,
                             const BfsForest& forest) {
  BacktrackCtx ctx(b, forest);
  Scheduler scheduler(b.net);

  // ---- Strides (up-cast) ----
  BacktrackProgram up(ctx);
  scheduler.run(up);

  // ---- Root consumption: each root is one more center at depth 0 ----
  const Vertex n = b.g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    if (forest.spanned(v) && forest.depth[static_cast<std::size_t>(v)] == 0) {
      ctx.consume_at_center(v);
    }
  }

  // ---- Notification epoch (down-cast) ----
  const std::int64_t capdeg = b.cap - 1;
  const std::int64_t factor = b.exec.hub_threshold_factor;
  const std::int64_t epoch = ctx.depth_limit + 4 * factor * capdeg + 16;
  NotifyProgram down(ctx, epoch);
  scheduler.run(down);

  // Drain check: all queues must be empty within the fixed epoch — under
  // lossless synchronous delivery. A faulty/async transport may delay
  // arrivals past the epoch, legitimately marooning queued notifications.
  assert(ctx.down.queued() == 0 || !b.net.transport().ideal());
}

/// Interconnection: U_i's edges come from Task 1's exact detection lists.
/// Before phase ell, a second detection run from U_i's centers tells the
/// other endpoint of each edge; in phase ell every cluster is in U_ell and
/// Task 1 already gave both endpoints their knowledge.
void interconnect(CongestBuild& b, const DetectResult& det1,
                  const std::vector<Vertex>& u_centers) {
  for (const Vertex c : u_centers) {
    for (const SourceHit& h : det1.at(c)) {
      if (h.source == c) continue;
      b.log_edge(c, h.source, h.dist, EdgeKind::kInterconnect, c);
      ++b.stats.interconnect_edges;
      learn_local(b.out, c, h.source, h.dist);
    }
  }
  if (b.last) return;
  const DetectResult det2 = congest::detect_congest(
      b.net, u_centers, b.delta, b.cap, KeepSet(b.g.num_vertices(), b.centers));
  for (const Vertex c : b.centers) {
    for (const SourceHit& h : det2.at(c)) {
      if (h.source == c) continue;
      learn_local(b.out, c, h.source, h.dist);
    }
  }
}

}  // namespace

DistributedBuildResult build_emulator_distributed(
    const Graph& g, const DistributedParams& params, const ExecOptions& exec) {
  CongestBuild b(g, params.n, exec);
  if (exec.hub_threshold_factor < 1) {
    throw std::invalid_argument("hub_threshold_factor must be >= 1");
  }
  b.out.local.assign(static_cast<std::size_t>(g.num_vertices()), {});
  // Task 1's lists are read at P_i's centers only: the popularity test and
  // U_i's interconnection.
  return run_congest_phases(
      b, params,
      [](const SaiBuild& build) {
        return KeepSet(build.g.num_vertices(), build.centers);
      },
      "backtrack", backtrack_superclusters, interconnect);
}

}  // namespace usne
