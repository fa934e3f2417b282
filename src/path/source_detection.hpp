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
// full costs O(|E|) over the run.
//
// Only the keep set's lists are stored: the vertices whose lists the
// caller reads. Exploring needs per-vertex hit counts, the full-vertex
// bitset and each source's last two frontiers, so the hits go into a log
// that holds the last three strides: once strides d + 1 and d + 2 have
// read stride d, its kept records move to a second log and its storage is
// freed. Both logs grow in fixed-size chunks, so growth never copies
// them. A stable counting sort by vertex packs the kept records into the
// CSR behind at(). Memory is O(n + kept hits + three consecutive
// strides), with no per-vertex vectors; keeping every vertex keeps every
// hit, O(n + hits).

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// The vertices whose detection lists a detector stores: a bitset over
/// [0, n). Both detectors take one, and their results refuse a read
/// outside it: an empty list would read as "heard nothing".
class KeepSet {
 public:
  KeepSet() = default;
  /// Keeps the vertices of `keep`; duplicates are ignored. Throws
  /// std::out_of_range naming the first one outside [0, n).
  KeepSet(Vertex n, std::span<const Vertex> keep);

  /// Keeps every vertex of [0, n): for callers that walk pred chains
  /// through arbitrary vertices.
  static KeepSet all(Vertex n);

  Vertex num_vertices() const { return n_; }
  /// Whether every vertex of [0, n) is kept.
  bool full() const { return count_ == n_; }

  /// Whether v is kept; false outside [0, n).
  bool contains(Vertex v) const {
    if (v < 0 || v >= n_) return false;
    const auto i = static_cast<std::size_t>(v);
    return ((bits_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  /// Throws std::logic_error, with `what` naming the reader, unless v is
  /// kept.
  void require(Vertex v, const char* what) const;

 private:
  Vertex n_ = 0;
  Vertex count_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Throws std::invalid_argument, with `what` naming the caller, unless
/// `keep` is over n vertices.
void check_keep_set(const KeepSet& keep, Vertex n, const char* what);

/// Follows the predecessor pointers of det.at() from v back to `source`:
/// [v, ..., source], or empty when a list on the way lacks `source`.
template <typename Detection>
std::vector<Vertex> trace_to_source(const Detection& det, Vertex v,
                                    Vertex source) {
  std::vector<Vertex> path;
  Vertex cur = v;
  while (cur != -1) {
    path.push_back(cur);
    if (cur == source) return path;
    const auto hits = det.at(cur);
    const auto it = std::find_if(hits.begin(), hits.end(), [&](const SourceHit& h) {
      return h.source == source;
    });
    if (it == hits.end()) return {};  // source not detected along the chain
    cur = it->pred;
  }
  return {};
}

/// The kept vertices' detection lists, stored as one CSR: v's hits are
/// hits[offsets[v], offsets[v + 1]), an empty row when v is not kept.
class SourceDetection {
 public:
  SourceDetection() = default;
  SourceDetection(std::vector<std::size_t> offsets, std::vector<SourceHit> hits,
                  KeepSet keep)
      : offsets_(std::move(offsets)), hits_(std::move(hits)), keep_(std::move(keep)) {}

  Vertex num_vertices() const { return keep_.num_vertices(); }

  /// The (<= k) nearest sources of v, sorted by (dist, source id). Throws
  /// std::logic_error when v was not kept.
  std::span<const SourceHit> at(Vertex v) const {
    keep_.require(v, "SourceDetection::at");
    const auto i = static_cast<std::size_t>(v);
    return {hits_.data() + offsets_[i], hits_.data() + offsets_[i + 1]};
  }

  /// Distance from v to `source` if detected at v, else kInfDist.
  Dist distance_to(Vertex v, Vertex source) const;

  /// Reconstructs a shortest path from v back to `source` using predecessor
  /// pointers (empty if source not detected at v). The returned path is
  /// [v, ..., source]; every vertex on it must be kept.
  std::vector<Vertex> path_to(Vertex v, Vertex source) const {
    return trace_to_source(*this, v, source);
  }

 private:
  std::vector<std::size_t> offsets_;  // n + 1 entries
  std::vector<SourceHit> hits_;
  KeepSet keep_;
};

/// Exact k-nearest-sources-within-d detection, storing the lists of the
/// vertices in `keep` only. Duplicate sources are ignored; throws
/// std::out_of_range naming the first source outside [0, n), and
/// std::invalid_argument when `keep` is over another vertex count.
SourceDetection detect_sources(const Graph& g, std::span<const Vertex> sources,
                               Dist depth, std::size_t k, KeepSet keep);

}  // namespace usne
