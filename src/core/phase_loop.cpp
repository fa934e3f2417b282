#include "core/phase_loop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace usne {

SaiBuild::SaiBuild(const Graph& graph, Vertex params_n,
                   const ExecOptions& options)
    : g(graph), exec(options) {
  const Vertex n = g.num_vertices();
  if (params_n != n) {
    throw std::invalid_argument("params were computed for a different n");
  }
  out.base.h = WeightedGraph(n);
  out.base.u_level.assign(static_cast<std::size_t>(n), -1);
  out.base.u_center.assign(static_cast<std::size_t>(n), -1);
  cluster_of.assign(static_cast<std::size_t>(n), -1);
  current = singleton_partition(n);
  if (exec.keep_audit_data) out.base.partitions.push_back(current);
}

void SaiBuild::begin_phase(int i, const PhaseSchedule& schedule,
                           const std::vector<Dist>& rul) {
  const auto at = static_cast<std::size_t>(i);
  phase = i;
  last = i == schedule.ell();
  deg = schedule.deg[at];
  delta = schedule.delta[at];
  depth = rul[at] + delta;
  cap = static_cast<std::int64_t>(std::ceil(deg - 1e-9)) + 1;

  stats = PhaseStats{};
  stats.phase = i;
  stats.clusters_in = static_cast<std::int64_t>(current.size());
  stats.deg_threshold = deg;
  stats.delta = delta;

  centers.clear();
  centers.reserve(current.size());
  for (std::size_t c = 0; c < current.size(); ++c) {
    centers.push_back(current[c].center);
    cluster_of[static_cast<std::size_t>(current[c].center)] =
        static_cast<std::int32_t>(c);
  }
  std::sort(centers.begin(), centers.end());
  superclustered.assign(static_cast<std::size_t>(g.num_vertices()), false);
}

void SaiBuild::log_edge(Vertex u, Vertex v, Dist w, EdgeKind kind,
                        Vertex charged) {
  out.base.h.add_edge(u, v, w);
  if (exec.keep_audit_data) {
    out.base.edge_log.push_back({u, v, w, phase, kind, charged});
  }
}

Cluster& SaiBuild::new_super(Vertex center) {
  Cluster& super = next.emplace_back();
  super.center = center;
  return super;
}

void SaiBuild::join(Cluster& super, Vertex center) {
  const Cluster& joined = current[static_cast<std::size_t>(
      cluster_of[static_cast<std::size_t>(center)])];
  super.members.insert(super.members.end(), joined.members.begin(),
                       joined.members.end());
  superclustered[static_cast<std::size_t>(center)] = true;
}

void SaiBuild::join_trees(const std::vector<Vertex>& roots,
                          const std::vector<Vertex>& root_of) {
  std::vector<std::int32_t> super_of(static_cast<std::size_t>(g.num_vertices()),
                                     -1);
  for (const Vertex r : roots) {
    super_of[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(next.size());
    new_super(r);
  }
  for (const Vertex c : centers) {
    const Vertex root = root_of[static_cast<std::size_t>(c)];
    if (root == -1) continue;
    join(next[static_cast<std::size_t>(super_of[static_cast<std::size_t>(root)])],
         c);
  }
}

std::vector<Vertex> SaiBuild::unclustered() {
  std::vector<Vertex> u_centers;
  for (const Vertex c : centers) {
    if (superclustered[static_cast<std::size_t>(c)]) continue;
    u_centers.push_back(c);
    const Cluster& cluster =
        current[static_cast<std::size_t>(cluster_of[static_cast<std::size_t>(c)])];
    for (const Vertex m : cluster.members) {
      out.base.u_level[static_cast<std::size_t>(m)] = phase;
      out.base.u_center[static_cast<std::size_t>(m)] = c;
    }
  }
  stats.unclustered = static_cast<std::int64_t>(u_centers.size());
  return u_centers;
}

void SaiBuild::end_phase() {
  for (const Vertex c : centers) cluster_of[static_cast<std::size_t>(c)] = -1;
  stats.clusters_out = static_cast<std::int64_t>(next.size());
  stats.rounds = stats.rounds_detect + stats.rounds_ruling +
                 stats.rounds_forest + stats.rounds_backtrack +
                 stats.rounds_interconnect;
  out.base.phases.push_back(stats);
  current = std::move(next);
  next.clear();
  if (exec.keep_audit_data) out.base.partitions.push_back(current);
}

CongestBuild::CongestBuild(const Graph& graph, Vertex params_n,
                           const ExecOptions& options)
    : SaiBuild(graph, params_n, options), net(graph) {
  net.set_execution_threads(options.num_threads);
  net.configure_transport(options.transport);
}

}  // namespace usne
