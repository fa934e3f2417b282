#include "baselines/en17_emulator.hpp"

#include <algorithm>
#include <cmath>

#include "path/bfs.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

/// [EN17a]-style degree sequence: deg_i = n^((2^i - 1)/(gamma*kappa) + 1/kappa).
double en17_degree(Vertex n, int kappa, int gamma, int phase) {
  const double exponent =
      (std::pow(2.0, phase) - 1.0) / (static_cast<double>(gamma) * kappa) +
      1.0 / kappa;
  return std::pow(static_cast<double>(std::max<Vertex>(n, 1)), exponent);
}

}  // namespace

BuildResult build_emulator_en17(const Graph& g, int kappa, double eps,
                                std::uint64_t seed) {
  const Vertex n = g.num_vertices();
  Rng rng(seed);
  const int gamma =
      std::max(2, kappa >= 4
                      ? static_cast<int>(std::ceil(
                            std::log2(std::log2(static_cast<double>(kappa)))))
                      : 2);
  // Enough levels for the sequence to reach n (gamma*kappa needs ~log2 of
  // extra halvings); one final level with sampling probability 0.
  int ell = 0;
  while (en17_degree(n, kappa, gamma, ell) < static_cast<double>(n) &&
         ell < 8 * (32 - __builtin_clz(static_cast<unsigned>(std::max(kappa, 2))))) {
    ++ell;
  }
  ++ell;

  // Distance thresholds: same L_i + 2R_i recurrence as the centralized
  // schedule (the EN17a thresholds have the same structure).
  std::vector<Dist> delta(static_cast<std::size_t>(ell) + 1);
  Dist radius = 0;
  for (int i = 0; i <= ell; ++i) {
    const Dist seg =
        std::max<Dist>(1, static_cast<Dist>(std::ceil(std::pow(1.0 / eps, i) - 1e-9)));
    delta[static_cast<std::size_t>(i)] = seg + 2 * radius;
    radius += 2 * delta[static_cast<std::size_t>(i)];
  }

  BuildResult result;
  result.h = WeightedGraph(n);
  result.u_level.assign(static_cast<std::size_t>(n), -1);
  result.u_center.assign(static_cast<std::size_t>(n), -1);

  std::vector<Cluster> current = singleton_partition(n);
  std::vector<Dist> dist(static_cast<std::size_t>(n), kInfDist);
  std::vector<Vertex> touched;
  std::vector<bool> is_center_now(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> cluster_of(static_cast<std::size_t>(n), -1);

  for (int i = 0; i <= ell && !current.empty(); ++i) {
    const double deg_i = en17_degree(n, kappa, gamma, i);
    const double p = (i == ell) ? 0.0 : 1.0 / deg_i;
    const Dist delta_i = delta[static_cast<std::size_t>(i)];

    PhaseStats stats;
    stats.phase = i;
    stats.clusters_in = static_cast<std::int64_t>(current.size());
    stats.deg_threshold = deg_i;
    stats.delta = delta_i;

    std::vector<Vertex> centers;
    std::vector<Vertex> sampled_centers;
    for (std::size_t c = 0; c < current.size(); ++c) {
      const Vertex rc = current[c].center;
      centers.push_back(rc);
      is_center_now[static_cast<std::size_t>(rc)] = true;
      cluster_of[static_cast<std::size_t>(rc)] = static_cast<std::int32_t>(c);
      if (rng.chance(p)) sampled_centers.push_back(rc);
    }
    std::sort(centers.begin(), centers.end());
    std::sort(sampled_centers.begin(), sampled_centers.end());
    stats.popular = static_cast<std::int64_t>(sampled_centers.size());

    // Every center within delta_i of a sampled center joins the nearest one.
    MultiSourceBfsResult to_sampled;
    if (!sampled_centers.empty()) {
      to_sampled = multi_source_bfs(g, sampled_centers, delta_i);
    }

    std::vector<Cluster> next;
    std::vector<std::int32_t> super_of(static_cast<std::size_t>(n), -1);
    for (const Vertex s : sampled_centers) {
      super_of[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(next.size());
      Cluster super;
      super.center = s;
      next.push_back(std::move(super));
    }

    for (const Vertex c : centers) {
      const Cluster& own = current[static_cast<std::size_t>(
          cluster_of[static_cast<std::size_t>(c)])];
      const bool is_sampled =
          !sampled_centers.empty() &&
          std::binary_search(sampled_centers.begin(), sampled_centers.end(), c);
      const Dist ds = sampled_centers.empty()
                          ? kInfDist
                          : to_sampled.dist[static_cast<std::size_t>(c)];
      if (is_sampled || ds <= delta_i) {
        const Vertex s =
            is_sampled ? c : to_sampled.source[static_cast<std::size_t>(c)];
        Cluster& super =
            next[static_cast<std::size_t>(super_of[static_cast<std::size_t>(s)])];
        super.members.insert(super.members.end(), own.members.begin(),
                             own.members.end());
        if (!is_sampled) {
          result.h.add_edge(c, s, ds);
          ++stats.supercluster_edges;
        }
        continue;
      }
      // Unclustered: interconnect with all centers within delta_i.
      bounded_bfs(g, c, delta_i, dist, touched);
      for (const Vertex v : touched) {
        if (v != c && is_center_now[static_cast<std::size_t>(v)]) {
          result.h.add_edge(c, v, dist[static_cast<std::size_t>(v)]);
          ++stats.interconnect_edges;
        }
      }
      for (const Vertex v : touched) dist[static_cast<std::size_t>(v)] = kInfDist;
      touched.clear();
      ++stats.unclustered;
      for (const Vertex m : own.members) {
        result.u_level[static_cast<std::size_t>(m)] = i;
        result.u_center[static_cast<std::size_t>(m)] = c;
      }
    }

    for (const Vertex c : centers) {
      is_center_now[static_cast<std::size_t>(c)] = false;
      cluster_of[static_cast<std::size_t>(c)] = -1;
    }
    stats.clusters_out = static_cast<std::int64_t>(next.size());
    result.phases.push_back(stats);
    current = std::move(next);
  }
  return result;
}

}  // namespace usne
