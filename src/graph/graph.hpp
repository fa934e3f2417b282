#pragma once

// Immutable unweighted undirected graph in compressed-sparse-row form, plus
// a builder that normalizes arbitrary edge lists (dedup, self-loop removal).
//
// This is the substrate every algorithm in the repository runs on: the input
// graph G = (V, E) of the paper.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace usne {

/// Vertex identifier. Vertices are always [0, n).
using Vertex = std::int32_t;

/// Distances in G (hop counts) and in emulators (weighted). 64-bit because
/// emulator edge weights are sums of graph distances and the stretch
/// recurrences produce large thresholds.
using Dist = std::int64_t;

/// Sentinel for "unreachable".
inline constexpr Dist kInfDist = INT64_MAX / 4;

/// Undirected edge with u <= v after normalization.
struct Edge {
  Vertex u = 0;
  Vertex v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Immutable CSR graph. Construct via GraphBuilder or from_edges().
class Graph {
 public:
  Graph() = default;

  /// Builds from a normalized, deduplicated edge list. Typically reached via
  /// GraphBuilder; asserts normalization in debug builds.
  Graph(Vertex n, std::vector<Edge> edges);

  Vertex num_vertices() const noexcept { return n_; }
  std::int64_t num_edges() const noexcept {
    return static_cast<std::int64_t>(edges_.size());
  }

  /// Neighbors of v, sorted ascending.
  std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  std::int64_t degree(Vertex v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Offset of v's adjacency run in the underlying CSR storage; valid for
  /// v in [0, n] (csr_offset(n) == 2|E|). Directed-edge slot arithmetic
  /// (e.g. the CONGEST per-edge cap) builds on this instead of poking at
  /// span data pointers, which is undefined on an empty graph and fragile
  /// against storage changes.
  std::int64_t csr_offset(Vertex v) const noexcept { return offsets_[v]; }

  std::int64_t max_degree() const noexcept { return max_degree_; }

  /// The normalized (u <= v), sorted edge list.
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// True if (u, v) is an edge. O(log deg(u)).
  bool has_edge(Vertex u, Vertex v) const noexcept;

 private:
  Vertex n_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::int64_t> offsets_;  // size n_+1
  std::vector<Vertex> adjacency_;      // size 2|E|
  std::int64_t max_degree_ = 0;
};

/// Throws std::out_of_range naming `v` and the caller `what` unless v is
/// in [0, n) (or [0, g.num_vertices())). For entry points that take vertex
/// ids from their caller and index per-vertex arrays with them.
void check_vertex(Vertex n, Vertex v, const char* what);
void check_vertex(const Graph& g, Vertex v, const char* what);

/// Incremental edge-list accumulator. Normalizes on build():
///  * drops self loops,
///  * deduplicates parallel edges,
///  * orients every edge as u <= v and sorts.
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex n) : n_(n) {}

  /// Adds an undirected edge; out-of-range endpoints are rejected (returns
  /// false) rather than silently clamped.
  bool add_edge(Vertex u, Vertex v);

  Vertex num_vertices() const noexcept { return n_; }
  std::size_t pending_edges() const noexcept { return edges_.size(); }

  /// Finalizes into an immutable Graph. The builder may be reused afterwards
  /// (it keeps its edges).
  Graph build() const;

 private:
  Vertex n_;
  std::vector<Edge> edges_;
};

}  // namespace usne
