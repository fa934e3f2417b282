#pragma once

// Textbook binary-heap Dijkstra on a weighted graph: the exact reference
// the serving kernel (path/sssp_kernel.hpp) and the stretch evaluation are
// checked against. Queries on H are served by serve::QueryEngine.

#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"

namespace usne {

/// Single-source Dijkstra on a weighted graph. Returns distances
/// (kInfDist when unreachable).
std::vector<Dist> dijkstra(const WeightedGraph& h, Vertex source);

}  // namespace usne
