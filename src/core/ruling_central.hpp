#pragma once

// Centralized counterpart of the distributed digit-sweep ruling set
// (congest/ruling_set.hpp) — identical semantics, computed with bounded
// BFS floods instead of messages. Used by the fast centralized
// construction (paper §3.3) and the spanner builder; tests assert it agrees
// with the CONGEST implementation exactly.
//
// Work and memory. Each level groups its candidates by digit once (a sort
// of the survivors) and keeps one array of capped distances to the
// vertices selected so far at that level. A sweep step floods from its
// new selections only through vertices whose distance it lowers, so a
// level costs O(candidates log candidates) plus the arcs of vertices whose
// coverage improves, never a fresh O(n) pass per step. The array is
// allocated once per call (O(n)) and reset through the list of entries a
// level touched.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace usne {

struct CentralRulingSet {
  std::vector<Vertex> members;  // ascending
  Dist separation = 0;          // q + 2
  Dist covering = 0;            // levels * (q + 1)
};

/// Ruling set for `w` with separation parameter q, ID digits in base `base`.
/// Duplicates in `w` are ignored; throws std::out_of_range naming the first
/// vertex of `w` outside [0, n).
CentralRulingSet ruling_set_central(const Graph& g, const std::vector<Vertex>& w,
                                    Dist q, std::int64_t base);

}  // namespace usne
