#pragma once

// Distributed popular-cluster detection — the paper's Algorithm 2
// (modified Bellman–Ford of [EM19], Theorem 3.1).
//
// A parallel Bellman–Ford exploration from the set of cluster centers runs
// for delta strides. In each stride, every vertex forwards to all its
// neighbours the (up to) cap = deg+1 cluster centers it learnt about during
// the previous stride; if it learnt more, it forwards the cap smallest
// (dist, id) pairs (the paper allows an arbitrary choice; smallest-first is
// our deterministic specialization). Each stride takes `cap` rounds so the
// one-message-per-edge-per-round CONGEST constraint holds exactly.
//
// Guarantees (paper Theorem 3.1):
//  1. a center that hears >= deg other centers is popular; every popular
//     center is detected;
//  2. every center that hears < cap sources knows *all* centers within
//     distance delta of it, with exact distances, and for each such pair a
//     shortest path on which every vertex knows its distance from the
//     source (we record predecessor pointers, enabling path tracing for the
//     spanner variant).
//
// Every vertex runs the whole exploration, but only the keep set's lists
// are stored: the vertices whose lists the caller reads. Any other vertex
// keeps just what the exploration needs: which sources it heard, and the
// ids it will forward next stride.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "path/source_detection.hpp"

namespace usne::congest {

/// Per-vertex knowledge produced by the exploration, for the kept
/// vertices. Reuses SourceHit and KeepSet from the centralized detection
/// so the two implementations are directly comparable in tests.
class DetectResult {
 public:
  DetectResult() = default;
  DetectResult(std::vector<std::vector<SourceHit>> hits, KeepSet keep,
               std::int64_t rounds)
      : rounds_used(rounds), hits_(std::move(hits)), keep_(std::move(keep)) {}

  Vertex num_vertices() const { return keep_.num_vertices(); }

  /// The sources v heard: (source, dist, predecessor neighbour), sorted by
  /// (dist, source). Throws std::logic_error when v was not kept.
  std::span<const SourceHit> at(Vertex v) const {
    keep_.require(v, "DetectResult::at");
    return hits_[static_cast<std::size_t>(v)];
  }

  /// Distance from v to `source` if v heard it, else kInfDist.
  Dist distance_to(Vertex v, Vertex source) const;

  /// Number of sources heard by v, excluding v itself.
  std::size_t heard_others(Vertex v) const;

  /// Traces the recorded shortest path from v back to `source`
  /// ([v, ..., source]; empty if untraceable). Every vertex on it must be
  /// kept.
  std::vector<Vertex> path_to(Vertex v, Vertex source) const {
    return trace_to_source(*this, v, source);
  }

  std::int64_t rounds_used = 0;

 private:
  std::vector<std::vector<SourceHit>> hits_;  // empty unless kept
  KeepSet keep_;
};

/// Runs Algorithm 2 from `sources` to depth `delta` with per-stride
/// forwarding cap `cap` (the paper's deg_i + 1), storing the lists of the
/// vertices in `keep` only. Consumes exactly delta * cap rounds. Throws
/// std::out_of_range naming the first source outside [0, n), and
/// std::invalid_argument when `keep` is over another vertex count.
DetectResult detect_congest(Network& net, const std::vector<Vertex>& sources,
                            Dist delta, std::int64_t cap, KeepSet keep);

}  // namespace usne::congest
