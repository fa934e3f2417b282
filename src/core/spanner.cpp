#include "core/spanner.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/phase_loop.hpp"

namespace usne {
namespace {

/// Inserts the consecutive unit edges of `path` into H, counting them in
/// `counter`.
void add_path(SaiBuild& b, const std::vector<Vertex>& path, EdgeKind kind,
              Vertex charged, std::int64_t& counter) {
  for (std::size_t j = 0; j + 1 < path.size(); ++j) {
    b.log_edge(std::min(path[j], path[j + 1]), std::max(path[j], path[j + 1]),
               1, kind, charged);
    ++counter;
  }
}

}  // namespace

template <typename Params>
BuildResult build_spanner(const Graph& g, const Params& params,
                          const ExecOptions& exec) {
  return run_central_phases(
      g, params, exec,
      // path_to walks pred chains through arbitrary vertices.
      [](const SaiBuild& b) { return KeepSet::all(b.g.num_vertices()); },
      // Superclustering: the forest root-path of c.
      [](SaiBuild& b, [[maybe_unused]] Vertex root, Vertex c,
         const MultiSourceBfsResult& forest) {
        std::vector<Vertex> path;
        for (Vertex cur = c; cur != -1;
             cur = forest.parent[static_cast<std::size_t>(cur)]) {
          path.push_back(cur);
        }
        assert(path.back() == root);
        add_path(b, path, EdgeKind::kSupercluster, c, b.stats.supercluster_edges);
      },
      // Interconnection: the recorded shortest path to the heard center.
      [](SaiBuild& b, Vertex c, const SourceHit& hit,
         const SourceDetection& detect) {
        const std::vector<Vertex> path = detect.path_to(c, hit.source);
        assert(!path.empty());
        add_path(b, path, EdgeKind::kSpannerPath, c, b.stats.interconnect_edges);
      });
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
