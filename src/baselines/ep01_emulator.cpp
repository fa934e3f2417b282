#include "baselines/ep01_emulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/connectivity.hpp"
#include "path/bfs.hpp"

namespace usne {

BuildResult build_emulator_ep01(const Graph& g, const CentralizedParams& params) {
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
  std::vector<Dist> dist(static_cast<std::size_t>(n), kInfDist);
  std::vector<Vertex> touched;
  std::vector<bool> in_s(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> cluster_of(static_cast<std::size_t>(n), -1);

  for (int i = 0; i <= ell; ++i) {
    const double deg_i = sched.deg[static_cast<std::size_t>(i)];
    const Dist delta_i = sched.delta[static_cast<std::size_t>(i)];

    PhaseStats stats;
    stats.phase = i;
    stats.clusters_in = static_cast<std::int64_t>(current.size());
    stats.deg_threshold = deg_i;
    stats.delta = delta_i;

    std::vector<Vertex> centers;
    for (std::size_t c = 0; c < current.size(); ++c) {
      const Vertex rc = current[c].center;
      centers.push_back(rc);
      in_s[static_cast<std::size_t>(rc)] = true;
      cluster_of[static_cast<std::size_t>(rc)] = static_cast<std::int32_t>(c);
    }
    std::sort(centers.begin(), centers.end());

    std::vector<Cluster> next;
    for (const Vertex rc : centers) {
      if (!in_s[static_cast<std::size_t>(rc)]) continue;
      in_s[static_cast<std::size_t>(rc)] = false;
      bounded_bfs(g, rc, delta_i, dist, touched);
      std::vector<Vertex> gamma;
      for (const Vertex v : touched) {
        if (v != rc && in_s[static_cast<std::size_t>(v)] &&
            dist[static_cast<std::size_t>(v)] <= delta_i) {
          gamma.push_back(v);
        }
      }
      std::sort(gamma.begin(), gamma.end());
      const bool popular = static_cast<double>(gamma.size()) + 1e-9 >= deg_i;

      const Cluster& own = current[static_cast<std::size_t>(
          cluster_of[static_cast<std::size_t>(rc)])];
      if (!popular) {
        for (const Vertex v : gamma) {
          result.h.add_edge(rc, v, dist[static_cast<std::size_t>(v)]);
          ++stats.interconnect_edges;
        }
        ++stats.unclustered;
        for (const Vertex m : own.members) {
          result.u_level[static_cast<std::size_t>(m)] = i;
          result.u_center[static_cast<std::size_t>(m)] = rc;
        }
      } else {
        ++stats.popular;
        Cluster super;
        super.center = rc;
        super.members = own.members;
        for (const Vertex v : gamma) {
          result.h.add_edge(rc, v, dist[static_cast<std::size_t>(v)]);
          ++stats.supercluster_edges;
          const Cluster& joined = current[static_cast<std::size_t>(
              cluster_of[static_cast<std::size_t>(v)])];
          super.members.insert(super.members.end(), joined.members.begin(),
                               joined.members.end());
          in_s[static_cast<std::size_t>(v)] = false;
        }
        next.push_back(std::move(super));
      }
      for (const Vertex v : touched) dist[static_cast<std::size_t>(v)] = kInfDist;
      touched.clear();
    }

    for (const Vertex rc : centers) cluster_of[static_cast<std::size_t>(rc)] = -1;
    stats.clusters_out = static_cast<std::int64_t>(next.size());
    result.phases.push_back(stats);
    current = std::move(next);
  }

  // Residual clusters of P_{ell+1} (if any): mark members as settled so the
  // result is well-formed even when the last phase still superclustered.
  for (const Cluster& c : current) {
    for (const Vertex m : c.members) {
      result.u_level[static_cast<std::size_t>(m)] = ell;
      result.u_center[static_cast<std::size_t>(m)] = c.center;
    }
  }

  // The ground partition: a spanning forest of G, up to n - 1 extra edges.
  // This is the structural cost the buffer-set mechanism of Algorithm 1
  // eliminates.
  PhaseStats ground;
  ground.phase = ell + 1;
  for (const Edge& e : spanning_forest(g)) {
    result.h.add_edge(e.u, e.v, 1);
    ++ground.supercluster_edges;
  }
  result.phases.push_back(ground);
  return result;
}

}  // namespace usne
