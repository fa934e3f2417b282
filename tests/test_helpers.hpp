#pragma once

// Shared helpers for the test suite.

#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/phase_loop.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "path/bfs.hpp"
#include "path/source_detection.hpp"

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

/// The keep set of a detection whose every list the test reads.
inline KeepSet keep_all(const Graph& g) { return KeepSet::all(g.num_vertices()); }

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

/// The labels, in order, of the construction profile a build records with
/// ExecOptions::profile: detect opens every phase and interconnect closes
/// it; ruling, forest and the CONGEST builders' Task 3 (`task3`:
/// "backtrack" for emulator_congest, "upcast" for spanner_congest; nullptr
/// for the centralized builders, which have no Task 3 of their own) sit
/// between them in every phase but the last that found a popular cluster.
inline std::vector<std::string> profile_labels(
    const std::vector<PhaseStats>& phases, const char* task3 = nullptr) {
  std::vector<std::string> labels;
  for (const PhaseStats& p : phases) {
    labels.push_back(profile_label(p.phase, "detect"));
    if (p.popular > 0 && &p != &phases.back()) {
      labels.push_back(profile_label(p.phase, "ruling"));
      labels.push_back(profile_label(p.phase, "forest"));
      if (task3 != nullptr) labels.push_back(profile_label(p.phase, task3));
    }
    labels.push_back(profile_label(p.phase, "interconnect"));
  }
  return labels;
}

}  // namespace usne::test
