#pragma once

// Centralized (S, d, k)-source detection (Lenzen–Peleg [LP13] semantics).
//
// For every vertex v, computes the k nearest sources within distance d,
// where "nearest" orders by (distance, source id) lexicographically — the
// deterministic specialization used throughout this repository.
//
// This is (a) the workhorse of the fast centralized construction (paper
// §3.3), which simulates the distributed algorithm without paying message
// passing, and (b) the ground truth against which the CONGEST Algorithm 2
// implementation is tested.
//
// Correctness of truncated propagation: if s is among the k best sources of
// v (by (dist, id)) via a shortest path through u, then s is among the k
// best sources of u — so finalizing entries in global (dist, id) order and
// keeping only k per vertex is exact. The same argument shows every
// recorded distance is the true d_G(v, s): a vertex that misses s at
// d_G(v, s) is full by then with k smaller (dist, id) pairs and never
// records s later.
//
// Work and memory. The run is source-major: in stride d each source, in
// ascending id, walks the frontier it recorded in stride d - 1 and records
// each neighbour that is neither full nor already holding it. Ascending
// ids within a stride are exactly the (dist, id) order, so no sort is
// needed. A neighbour u of that frontier has d_G(u, s) in
// {d - 2, d - 1, d}, and recorded distances are exact, so u already holds
// s iff u is in s's d - 2 or d - 1 frontier or was recorded in this
// stride: stamping those two frontiers per source makes the duplicate
// test O(1) and complete. Arcs into full vertices are cut by a cached
// bitset, and a frontier vertex whose neighbours are all full is skipped
// whole. So a stride costs O(sum over sources of its last two frontiers
// plus the arcs leaving frontier vertices that still have a non-full
// neighbour), with no sort and no per-arrival list scan; marking vertices
// full costs O(|E|) over the run. Every hit is one record in a single
// log; a stable counting sort by vertex turns the log into the CSR behind
// at(), so memory is O(n + hits) with no per-vertex vectors.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace usne {

/// One detected source at a vertex.
struct SourceHit {
  Vertex source = -1;
  Dist dist = kInfDist;
  Vertex pred = -1;  // predecessor vertex on a shortest path (=-1 at source)

  friend bool operator==(const SourceHit&, const SourceHit&) = default;
};

/// Per-vertex detection lists, stored as one CSR: v's hits are
/// hits[offsets[v], offsets[v + 1]).
class SourceDetection {
 public:
  SourceDetection() = default;
  SourceDetection(std::vector<std::size_t> offsets, std::vector<SourceHit> hits)
      : offsets_(std::move(offsets)), hits_(std::move(hits)) {}

  Vertex num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<Vertex>(offsets_.size() - 1);
  }

  /// The (<= k) nearest sources of v, sorted by (dist, source id).
  std::span<const SourceHit> at(Vertex v) const {
    const auto i = static_cast<std::size_t>(v);
    return {hits_.data() + offsets_[i], hits_.data() + offsets_[i + 1]};
  }

  /// Distance from v to `source` if detected at v, else kInfDist.
  Dist distance_to(Vertex v, Vertex source) const;

  /// Reconstructs a shortest path from v back to `source` using predecessor
  /// pointers (empty if source not detected at v). The returned path is
  /// [v, ..., source].
  std::vector<Vertex> path_to(Vertex v, Vertex source) const;

 private:
  std::vector<std::size_t> offsets_;  // n + 1 entries
  std::vector<SourceHit> hits_;
};

/// Exact k-nearest-sources-within-d detection. Duplicate sources are
/// ignored; throws std::out_of_range naming the first source outside
/// [0, n).
SourceDetection detect_sources(const Graph& g, std::span<const Vertex> sources,
                               Dist depth, std::size_t k);

}  // namespace usne
