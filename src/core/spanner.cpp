#include "core/spanner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/ruling_central.hpp"
#include "core/task_clock.hpp"
#include "obs/trace.hpp"
#include "path/bfs.hpp"
#include "path/source_detection.hpp"

namespace usne {

template <typename Params>
BuildResult build_spanner(const Graph& g, const Params& params,
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

  std::vector<std::int32_t> cluster_of(static_cast<std::size_t>(n), -1);
  TaskClock clock(exec.profile ? &result.profile : nullptr);

  // Inserts the consecutive unit edges of `path` into H.
  auto add_path = [&](const std::vector<Vertex>& path, int phase, EdgeKind kind,
                      Vertex charged, std::int64_t& counter) {
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      result.h.add_edge(path[j], path[j + 1], 1);
      if (exec.keep_audit_data) {
        result.edge_log.push_back(
            {std::min(path[j], path[j + 1]), std::max(path[j], path[j + 1]), 1,
             phase, kind, charged});
      }
      ++counter;
    }
  };

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
    }
    std::sort(centers.begin(), centers.end());

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
      CentralRulingSet ruling;
      {
        USNE_TRACE_SPAN("core.ruling");
        ruling = ruling_set_central(g, popular, 2 * delta_i, params.ruling_base);
      }
      clock.cut(i, "ruling");

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
        if (root == -1) continue;
        Cluster& super =
            next[static_cast<std::size_t>(super_of[static_cast<std::size_t>(root)])];
        const Cluster& joined =
            current[static_cast<std::size_t>(cluster_of[static_cast<std::size_t>(c)])];
        super.members.insert(super.members.end(), joined.members.begin(),
                             joined.members.end());
        superclustered[static_cast<std::size_t>(c)] = true;
        if (c != root) {
          // Superclustering: add the forest root-path of c.
          std::vector<Vertex> path;
          Vertex cur = c;
          while (cur != -1) {
            path.push_back(cur);
            cur = forest.parent[static_cast<std::size_t>(cur)];
          }
          assert(path.back() == root);
          add_path(path, i, EdgeKind::kSupercluster, c,
                   stats.supercluster_edges);
        }
      }
      clock.cut(i, "forest");
    }

    // Interconnection: unspanned clusters connect along recorded shortest
    // paths to all their neighbouring centers.
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
          const std::vector<Vertex> path = detect.path_to(c, h.source);
          assert(!path.empty());
          add_path(path, i, EdgeKind::kSpannerPath, c, stats.interconnect_edges);
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
  return result;
}

template BuildResult build_spanner(const Graph&, const SpannerParams&,
                                   const ExecOptions&);
template BuildResult build_spanner(const Graph&, const DistributedParams&,
                                   const ExecOptions&);

bool is_subgraph(const WeightedGraph& h, const Graph& g) {
  for (const WeightedEdge& e : h.edges()) {
    if (e.w != 1 || !g.has_edge(e.u, e.v)) return false;
  }
  return true;
}

}  // namespace usne
