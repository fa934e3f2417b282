#include "core/emulator_fast.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/ruling_central.hpp"
#include "core/task_clock.hpp"
#include "obs/trace.hpp"
#include "path/bfs.hpp"
#include "path/source_detection.hpp"

namespace usne {

BuildResult build_emulator_fast(const Graph& g, const DistributedParams& params,
                                const ExecOptions& exec) {
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

  auto log_edge = [&](Vertex u, Vertex v, Dist w, int phase, EdgeKind kind,
                      Vertex charged) {
    result.h.add_edge(u, v, w);
    if (exec.keep_audit_data) {
      result.edge_log.push_back({u, v, w, phase, kind, charged});
    }
  };

  // cluster index by center, valid within a phase.
  std::vector<std::int32_t> cluster_of(static_cast<std::size_t>(n), -1);
  TaskClock clock(exec.profile ? &result.profile : nullptr);

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
    centers.reserve(current.size());
    for (std::size_t c = 0; c < current.size(); ++c) {
      centers.push_back(current[c].center);
      cluster_of[static_cast<std::size_t>(current[c].center)] =
          static_cast<std::int32_t>(c);
    }
    std::sort(centers.begin(), centers.end());

    // Task 1: capped source detection; popular = hears >= deg_i others.
    SourceDetection detect;
    std::vector<Vertex> popular;
    {
      USNE_TRACE_SPAN("core.detect");
      detect = detect_sources(g, centers, delta_i, static_cast<std::size_t>(cap));
      for (const Vertex c : centers) {
        std::size_t others = 0;
        for (const SourceHit& h : detect.at(c)) {
          if (h.source != c) ++others;
        }
        if (static_cast<double>(others) + 1e-9 >= deg_i) popular.push_back(c);
      }
    }
    clock.cut(i, "detect");
    stats.popular = static_cast<std::int64_t>(popular.size());

    std::vector<Cluster> next;
    std::vector<bool> superclustered(static_cast<std::size_t>(n), false);

    if (i < ell && !popular.empty()) {
      // Task 2: ruling set on the popular centers.
      CentralRulingSet ruling;
      {
        USNE_TRACE_SPAN("core.ruling");
        ruling = ruling_set_central(g, popular, 2 * delta_i, params.ruling_base);
      }
      clock.cut(i, "ruling");

      // Task 3: BFS forest to depth rul_i + delta_i; one supercluster per
      // tree (no hub splitting in the centralized simulation, §3.3).
      USNE_TRACE_SPAN("core.forest");
      const MultiSourceBfsResult forest =
          multi_source_bfs(g, ruling.members, rul_i + delta_i);

      std::vector<std::int32_t> super_of(static_cast<std::size_t>(n), -1);
      for (const Vertex r : ruling.members) {
        super_of[static_cast<std::size_t>(r)] =
            static_cast<std::int32_t>(next.size());
        Cluster super;
        super.center = r;
        next.push_back(std::move(super));
      }
      for (const Vertex c : centers) {
        const Vertex root = forest.source[static_cast<std::size_t>(c)];
        if (root == -1) continue;  // unspanned -> U_i
        Cluster& super =
            next[static_cast<std::size_t>(super_of[static_cast<std::size_t>(root)])];
        const Cluster& joined =
            current[static_cast<std::size_t>(cluster_of[static_cast<std::size_t>(c)])];
        super.members.insert(super.members.end(), joined.members.begin(),
                             joined.members.end());
        superclustered[static_cast<std::size_t>(c)] = true;
        if (c != root) {
          log_edge(root, c, forest.dist[static_cast<std::size_t>(c)], i,
                   EdgeKind::kSupercluster, c);
          ++stats.supercluster_edges;
        }
      }
      clock.cut(i, "forest");
    }

    // Interconnection: unspanned clusters form U_i and connect to all their
    // neighbouring centers (exact lists — they and their neighbours are
    // unpopular, Lemma 3.4).
    {
      USNE_TRACE_SPAN("core.interconnect");
      for (const Vertex c : centers) {
        if (superclustered[static_cast<std::size_t>(c)]) continue;
        ++stats.unclustered;
        const Cluster& cluster =
            current[static_cast<std::size_t>(cluster_of[static_cast<std::size_t>(c)])];
        for (const Vertex m : cluster.members) {
          result.u_level[static_cast<std::size_t>(m)] = i;
          result.u_center[static_cast<std::size_t>(m)] = c;
        }
        for (const SourceHit& h : detect.at(c)) {
          if (h.source == c) continue;
          log_edge(c, h.source, h.dist, i, EdgeKind::kInterconnect, c);
          ++stats.interconnect_edges;
        }
      }
    }

    for (const Vertex c : centers) cluster_of[static_cast<std::size_t>(c)] = -1;
    stats.clusters_out = static_cast<std::int64_t>(next.size());
    result.phases.push_back(stats);
    current = std::move(next);
    if (exec.keep_audit_data) result.partitions.push_back(current);
    clock.cut(i, "interconnect");
  }

  assert(current.empty());
  for (Vertex v = 0; v < n; ++v) {
    assert(result.u_level[static_cast<std::size_t>(v)] != -1);
    (void)v;
  }
  return result;
}

}  // namespace usne
