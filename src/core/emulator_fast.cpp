#include "core/emulator_fast.hpp"

#include "core/phase_loop.hpp"

namespace usne {

BuildResult build_emulator_fast(const Graph& g, const DistributedParams& params,
                                const ExecOptions& exec) {
  return run_central_phases(
      g, params, exec,
      // Only P_i's centers' lists are read.
      [](const SaiBuild& b) { return KeepSet(b.g.num_vertices(), b.centers); },
      [](SaiBuild& b, Vertex root, Vertex c, const MultiSourceBfsResult& forest) {
        b.log_edge(root, c, forest.dist[static_cast<std::size_t>(c)],
                   EdgeKind::kSupercluster, c);
        ++b.stats.supercluster_edges;
      },
      [](SaiBuild& b, Vertex c, const SourceHit& hit, const SourceDetection&) {
        b.log_edge(c, hit.source, hit.dist, EdgeKind::kInterconnect, c);
        ++b.stats.interconnect_edges;
      });
}

}  // namespace usne
