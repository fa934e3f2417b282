#include "baselines/tz06_emulator.hpp"

#include <algorithm>
#include <cmath>

#include "path/bfs.hpp"
#include "util/rng.hpp"

namespace usne {

BuildResult build_emulator_tz06(const Graph& g, int kappa, std::uint64_t seed) {
  const Vertex n = g.num_vertices();
  Rng rng(seed);
  int ell = 0;
  while ((std::int64_t{1} << (ell + 1)) - 1 < kappa) ++ell;
  ++ell;  // one extra level whose sampling probability is 0 (termination)

  BuildResult result;
  result.h = WeightedGraph(n);
  result.u_level.assign(static_cast<std::size_t>(n), -1);
  result.u_center.assign(static_cast<std::size_t>(n), -1);

  std::vector<Cluster> current = singleton_partition(n);
  std::vector<Dist> dist(static_cast<std::size_t>(n), kInfDist);
  std::vector<Vertex> touched;
  std::vector<bool> is_center_now(static_cast<std::size_t>(n), false);
  std::vector<bool> sampled(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> cluster_of(static_cast<std::size_t>(n), -1);

  for (int i = 0; i <= ell && !current.empty(); ++i) {
    const double deg_i = ep01_degree(n, kappa, i);
    const double p = (i == ell) ? 0.0 : 1.0 / deg_i;

    PhaseStats stats;
    stats.phase = i;
    stats.clusters_in = static_cast<std::int64_t>(current.size());
    stats.deg_threshold = deg_i;

    std::vector<Vertex> centers;
    std::vector<Vertex> sampled_centers;
    for (std::size_t c = 0; c < current.size(); ++c) {
      const Vertex rc = current[c].center;
      centers.push_back(rc);
      is_center_now[static_cast<std::size_t>(rc)] = true;
      cluster_of[static_cast<std::size_t>(rc)] = static_cast<std::int32_t>(c);
      sampled[static_cast<std::size_t>(rc)] = rng.chance(p);
      if (sampled[static_cast<std::size_t>(rc)]) sampled_centers.push_back(rc);
    }
    std::sort(centers.begin(), centers.end());
    stats.popular = static_cast<std::int64_t>(sampled_centers.size());

    // Distance from every vertex to the nearest sampled center.
    MultiSourceBfsResult to_sampled;
    if (!sampled_centers.empty()) {
      to_sampled = multi_source_bfs(g, sampled_centers, kInfDist);
    }

    std::vector<Cluster> next;
    std::vector<std::int32_t> super_of(static_cast<std::size_t>(n), -1);
    for (const Vertex s : sampled_centers) {
      super_of[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(next.size());
      Cluster super;
      super.center = s;
      super.members = current[static_cast<std::size_t>(
                                  cluster_of[static_cast<std::size_t>(s)])]
                          .members;
      next.push_back(std::move(super));
    }

    for (const Vertex c : centers) {
      if (sampled[static_cast<std::size_t>(c)]) continue;
      const Dist ds = sampled_centers.empty()
                          ? kInfDist
                          : to_sampled.dist[static_cast<std::size_t>(c)];
      // Connect to every unsampled center strictly closer than the nearest
      // sampled center.
      const Dist explore = (ds == kInfDist) ? kInfDist : ds - 1;
      bounded_bfs(g, c, explore, dist, touched);
      for (const Vertex v : touched) {
        if (v != c && is_center_now[static_cast<std::size_t>(v)] &&
            !sampled[static_cast<std::size_t>(v)]) {
          result.h.add_edge(c, v, dist[static_cast<std::size_t>(v)]);
          ++stats.interconnect_edges;
        }
      }
      for (const Vertex v : touched) dist[static_cast<std::size_t>(v)] = kInfDist;
      touched.clear();

      const Cluster& own = current[static_cast<std::size_t>(
          cluster_of[static_cast<std::size_t>(c)])];
      if (ds != kInfDist) {
        // Join the nearest sampled cluster.
        const Vertex s = to_sampled.source[static_cast<std::size_t>(c)];
        result.h.add_edge(c, s, ds);
        ++stats.supercluster_edges;
        Cluster& super =
            next[static_cast<std::size_t>(super_of[static_cast<std::size_t>(s)])];
        super.members.insert(super.members.end(), own.members.begin(),
                             own.members.end());
      }
      // Unsampled clusters are settled after this phase either way.
      ++stats.unclustered;
      for (const Vertex m : own.members) {
        result.u_level[static_cast<std::size_t>(m)] = i;
        result.u_center[static_cast<std::size_t>(m)] = c;
      }
    }

    for (const Vertex c : centers) {
      is_center_now[static_cast<std::size_t>(c)] = false;
      cluster_of[static_cast<std::size_t>(c)] = -1;
      sampled[static_cast<std::size_t>(c)] = false;
    }
    stats.clusters_out = static_cast<std::int64_t>(next.size());
    result.phases.push_back(stats);
    current = std::move(next);
  }
  return result;
}

}  // namespace usne
