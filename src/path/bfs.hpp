#pragma once

// Breadth-first search primitives on the unweighted input graph G.
//
// The constructions in the paper only ever need *depth-bounded* explorations
// (to depth delta_i or 2*delta_i), so the bounded variants are first-class
// here and reused everywhere.

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace usne {

/// Full single-source BFS. Returns distance per vertex (kInfDist when
/// unreachable).
std::vector<Dist> bfs_distances(const Graph& g, Vertex source);

/// Depth-bounded single-source BFS.
///
/// Writes distances into `dist` (must be pre-sized to n and filled with
/// kInfDist); records every vertex it touched into `touched` so the caller
/// can cheaply reset `dist` afterwards. This makes repeated bounded
/// explorations O(ball size) instead of O(n).
void bounded_bfs(const Graph& g, Vertex source, Dist depth,
                 std::vector<Dist>& dist, std::vector<Vertex>& touched);

/// Depth-bounded multi-source BFS: distance to the nearest source, plus the
/// id of that source (ties broken toward the smaller source id — this is the
/// deterministic tie-break rule used by the BFS forests of Section 3).
/// Throws std::out_of_range naming a source outside [0, n).
struct MultiSourceBfsResult {
  std::vector<Dist> dist;       // distance to nearest source (kInfDist if none)
  std::vector<Vertex> source;   // winning source id, -1 if unreached
  std::vector<Vertex> parent;   // BFS-tree parent, -1 for sources/unreached
};
MultiSourceBfsResult multi_source_bfs(const Graph& g,
                                      std::span<const Vertex> sources,
                                      Dist depth);

/// Eccentricity of `source` (max finite BFS distance).
Dist eccentricity(const Graph& g, Vertex source);

}  // namespace usne
