#pragma once

// The serving SSSP kernel: exact single-source distances on H with a
// circular Dial ring over the packed CSR view (WeightedGraph::Csr).
//
// The paper's emulators have n + o(n) edges with small integer weights, so
// one Dial SSSP per cache miss is the whole serving cost. The kernel
// applies the standard shared-memory SSSP engineering (GAPBS lineage):
//
//  * flat frontier arrays over a packed CSR view — one offsets/arcs pair,
//    iterated directly, next row prefetched;
//  * a circular bucket ring of max_w + 1 slots instead of one bucket per
//    distance value, so bucket storage is O(W) not O(diameter * W);
//  * reusable per-thread scratch (SsspScratch) — steady-state queries
//    allocate only the result vector they hand to the cache.
//
// Results are bit-identical to dijkstra (path/dijkstra.hpp) on every input
// — enforced by tests/test_serve_kernels.cpp and the bench_scale checksum
// gates.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"

namespace usne {

/// Reusable buffers for dial_sssp_csr. One instance per serving thread (the
/// engine keeps them thread_local): buffers grow to the largest max_w seen
/// and are recycled wholesale — a steady-state query performs no
/// frontier/bucket allocation.
class SsspScratch {
 public:
  /// Total bytes currently held by the scratch buffers (capacity, not
  /// size) — the per-thread memory cost the scale bench accounts for.
  std::int64_t resident_bytes() const noexcept;

 private:
  friend std::vector<Dist> dial_sssp_csr(const WeightedGraph::Csr& g,
                                         Vertex source, Dist max_w,
                                         SsspScratch& scratch);

  void reset_ring(std::size_t slots);

  std::vector<std::vector<Vertex>> ring_;  // circular bucket frontiers
  std::vector<Vertex> frontier_;           // current bucket being drained
};

/// Exact SSSP with a circular Dial ring of max_w + 1 flat buckets.
/// `max_w` must be >= the largest edge weight in g (pass max_edge_weight).
std::vector<Dist> dial_sssp_csr(const WeightedGraph::Csr& g, Vertex source,
                                Dist max_w, SsspScratch& scratch);

/// Largest edge weight in g (0 for an edgeless graph). One O(E) scan; the
/// engine computes it once at construction.
Dist max_edge_weight(const WeightedGraph::Csr& g) noexcept;

}  // namespace usne
