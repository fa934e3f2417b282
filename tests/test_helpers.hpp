#pragma once

// Shared helpers for the test suite.

#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/task_clock.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "path/bfs.hpp"

namespace usne::test {

/// Small standard graphs used across suites.
inline Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  return b.build();
}

inline Graph two_triangles_bridge() {
  // 0-1-2 triangle, 3-4-5 triangle, bridge 2-3.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  b.add_edge(2, 3);
  return b.build();
}

/// Exact distance via BFS (reference).
inline Dist exact_dist(const Graph& g, Vertex u, Vertex v) {
  return bfs_distances(g, u)[static_cast<std::size_t>(v)];
}

/// The graph families used by the property sweeps (connected, varied).
inline const std::vector<std::string>& sweep_families() {
  static const std::vector<std::string> families = {
      "er", "ba", "torus", "star", "tree", "caveman", "ws"};
  return families;
}

/// Occurrences of `needle` in `haystack`.
inline std::size_t count_of(const std::string& haystack,
                            const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// The labels, in order, of the wall-time profile a centralized build
/// (emulator_fast, spanner, spanner_em19) records with ExecOptions::profile:
/// detect opens every phase and interconnect closes it; ruling and forest
/// sit between them exactly in the phases that superclustered.
inline std::vector<std::string> wall_profile_labels(
    const std::vector<PhaseStats>& phases) {
  std::vector<std::string> labels;
  for (const PhaseStats& p : phases) {
    labels.push_back(profile_label(p.phase, "detect"));
    if (p.clusters_out > 0) {
      labels.push_back(profile_label(p.phase, "ruling"));
      labels.push_back(profile_label(p.phase, "forest"));
    }
    labels.push_back(profile_label(p.phase, "interconnect"));
  }
  return labels;
}

}  // namespace usne::test
