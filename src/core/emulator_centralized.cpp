#include "core/emulator_centralized.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "path/bfs.hpp"

namespace usne {
namespace {

/// Per-center status within a phase.
enum class Status : std::uint8_t { kInS, kInN, kSuperclustered, kInU };

}  // namespace

BuildResult build_emulator_centralized(
    const Graph& g, const CentralizedParams& params, const ExecOptions& exec,
    const std::vector<Vertex>& processing_order) {
  const Vertex n = g.num_vertices();
  if (params.n != n) {
    throw std::invalid_argument("params were computed for a different n");
  }
  const PhaseSchedule& sched = params.schedule;
  const int ell = sched.ell();

  BuildResult result;
  result.h = WeightedGraph(n);
  result.u_level.assign(static_cast<std::size_t>(n), -1);
  result.u_center.assign(static_cast<std::size_t>(n), -1);

  std::vector<Cluster> current = singleton_partition(n);
  if (exec.keep_audit_data) result.partitions.push_back(current);

  // Scratch for bounded BFS (reset via the touched list).
  std::vector<Dist> dist(static_cast<std::size_t>(n), kInfDist);
  std::vector<Vertex> touched;

  // Per-vertex phase state (indexed by center vertex id).
  std::vector<Status> status(static_cast<std::size_t>(n));
  std::vector<std::int32_t> cluster_of(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> fallback(static_cast<std::size_t>(n), -1);
  std::vector<Dist> fallback_dist(static_cast<std::size_t>(n), 0);

  auto log_edge = [&](Vertex u, Vertex v, Dist w, int phase, EdgeKind kind,
                      Vertex charged) {
    result.h.add_edge(u, v, w);
    if (exec.keep_audit_data) {
      result.edge_log.push_back({u, v, w, phase, kind, charged});
    }
  };

  for (int i = 0; i <= ell; ++i) {
    const double deg_i = sched.deg[static_cast<std::size_t>(i)];
    const Dist delta_i = sched.delta[static_cast<std::size_t>(i)];

    PhaseStats stats;
    stats.phase = i;
    stats.clusters_in = static_cast<std::int64_t>(current.size());
    stats.deg_threshold = deg_i;
    stats.delta = delta_i;

    // Initialize phase state.
    std::vector<Vertex> centers;
    centers.reserve(current.size());
    for (std::size_t c = 0; c < current.size(); ++c) {
      const Vertex rc = current[c].center;
      status[static_cast<std::size_t>(rc)] = Status::kInS;
      cluster_of[static_cast<std::size_t>(rc)] = static_cast<std::int32_t>(c);
      centers.push_back(rc);
    }
    std::sort(centers.begin(), centers.end());

    // Processing order: the caller's, filtered to actual centers, followed
    // by any centers the caller did not mention (ascending).
    std::vector<Vertex> order;
    if (!processing_order.empty()) {
      std::vector<bool> listed(static_cast<std::size_t>(n), false);
      for (const Vertex v : processing_order) {
        if (v >= 0 && v < n && cluster_of[static_cast<std::size_t>(v)] != -1 &&
            !listed[static_cast<std::size_t>(v)]) {
          // Only centers of the current phase participate.
          bool is_center = std::binary_search(centers.begin(), centers.end(), v);
          if (is_center) {
            order.push_back(v);
            listed[static_cast<std::size_t>(v)] = true;
          }
        }
      }
      for (const Vertex v : centers) {
        if (!listed[static_cast<std::size_t>(v)]) order.push_back(v);
      }
    } else {
      order = centers;
    }

    std::vector<Cluster> next;          // P_{i+1}
    std::vector<Vertex> buffered;       // members of N_i, insertion order

    for (const Vertex rc : order) {
      if (status[static_cast<std::size_t>(rc)] != Status::kInS) continue;
      // Remove rc from S_i before the exploration (rc is not in Gamma(rc)).
      // Explore to 2*delta_i: Gamma needs delta_i; the buffer rule needs
      // (delta_i, 2*delta_i].
      bounded_bfs(g, rc, 2 * delta_i, dist, touched);

      // Gamma(rc): centers currently in S_i u N_i within delta_i.
      std::vector<Vertex> gamma;
      for (const Vertex v : touched) {
        if (v == rc) continue;
        if (dist[static_cast<std::size_t>(v)] > delta_i) continue;
        const Status st = status[static_cast<std::size_t>(v)];
        if (cluster_of[static_cast<std::size_t>(v)] != -1 &&
            (st == Status::kInS || st == Status::kInN)) {
          // Only centers of P_i clusters count.
          if (current[static_cast<std::size_t>(
                          cluster_of[static_cast<std::size_t>(v)])].center == v) {
            gamma.push_back(v);
          }
        }
      }
      std::sort(gamma.begin(), gamma.end());

      const bool popular =
          static_cast<double>(gamma.size()) + 1e-9 >= deg_i;

      Cluster& own = current[static_cast<std::size_t>(
          cluster_of[static_cast<std::size_t>(rc)])];

      if (!popular) {
        // Interconnection: edges charged to rc.
        for (const Vertex v : gamma) {
          log_edge(rc, v, dist[static_cast<std::size_t>(v)], i,
                   EdgeKind::kInterconnect, rc);
          ++stats.interconnect_edges;
        }
        status[static_cast<std::size_t>(rc)] = Status::kInU;
        ++stats.unclustered;
        for (const Vertex m : own.members) {
          result.u_level[static_cast<std::size_t>(m)] = i;
          result.u_center[static_cast<std::size_t>(m)] = rc;
        }
      } else {
        // Popular: form a supercluster around rc.
        ++stats.popular;
        Cluster super;
        super.center = rc;
        super.members = own.members;
        status[static_cast<std::size_t>(rc)] = Status::kSuperclustered;
        for (const Vertex v : gamma) {
          log_edge(rc, v, dist[static_cast<std::size_t>(v)], i,
                   EdgeKind::kSupercluster, v);
          ++stats.supercluster_edges;
          const Cluster& joined = current[static_cast<std::size_t>(
              cluster_of[static_cast<std::size_t>(v)])];
          super.members.insert(super.members.end(), joined.members.begin(),
                               joined.members.end());
          status[static_cast<std::size_t>(v)] = Status::kSuperclustered;
        }
        const std::int32_t super_index = static_cast<std::int32_t>(next.size());

        // Buffer rule: centers of S_i at distance in (delta_i, 2*delta_i]
        // move to N_i with this supercluster as fallback.
        for (const Vertex v : touched) {
          if (v == rc) continue;
          const Dist d = dist[static_cast<std::size_t>(v)];
          if (d <= delta_i || d > 2 * delta_i) continue;
          if (status[static_cast<std::size_t>(v)] != Status::kInS) continue;
          if (cluster_of[static_cast<std::size_t>(v)] == -1 ||
              current[static_cast<std::size_t>(
                          cluster_of[static_cast<std::size_t>(v)])].center != v) {
            continue;
          }
          status[static_cast<std::size_t>(v)] = Status::kInN;
          fallback[static_cast<std::size_t>(v)] = super_index;
          fallback_dist[static_cast<std::size_t>(v)] = d;
          buffered.push_back(v);
        }
        next.push_back(std::move(super));
      }

      // Reset the bounded-BFS scratch for the next center.
      for (const Vertex v : touched) dist[static_cast<std::size_t>(v)] = kInfDist;
      touched.clear();
    }

    // End of phase: buffered centers that were never absorbed join their
    // fallback supercluster.
    std::sort(buffered.begin(), buffered.end());
    for (const Vertex v : buffered) {
      if (status[static_cast<std::size_t>(v)] != Status::kInN) continue;
      const std::int32_t super_index = fallback[static_cast<std::size_t>(v)];
      Cluster& super = next[static_cast<std::size_t>(super_index)];
      log_edge(super.center, v, fallback_dist[static_cast<std::size_t>(v)], i,
               EdgeKind::kBufferJoin, v);
      ++stats.buffer_join_edges;
      const Cluster& joined = current[static_cast<std::size_t>(
          cluster_of[static_cast<std::size_t>(v)])];
      super.members.insert(super.members.end(), joined.members.begin(),
                           joined.members.end());
      status[static_cast<std::size_t>(v)] = Status::kSuperclustered;
    }

    // Clean per-phase state for the centers of this phase.
    for (const Vertex rc : centers) {
      cluster_of[static_cast<std::size_t>(rc)] = -1;
      fallback[static_cast<std::size_t>(rc)] = -1;
    }

    stats.clusters_out = static_cast<std::int64_t>(next.size());
    result.phases.push_back(stats);
    current = std::move(next);
    if (exec.keep_audit_data) result.partitions.push_back(current);
  }

  // Paper eq. (1): no popular clusters in phase ell, hence P_{ell+1} = {}.
  assert(current.empty());

  // U^(ell) partitions V: every vertex must carry a u_level.
  for (Vertex v = 0; v < n; ++v) {
    assert(result.u_level[static_cast<std::size_t>(v)] != -1);
    (void)v;
  }
  return result;
}

}  // namespace usne
