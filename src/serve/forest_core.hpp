#pragma once

// The structural serving kernel: H as a forest hung on a small core.
//
// Every emulator the pipeline serves has n + o(n) edges, and in practice
// it is a spanning forest, or a forest whose trees hang on a core of a few
// dozen vertices. ForestCore answers a point query on such an H in
// O(log n) without running an SSSP:
//
//  * Peel vertices of degree <= 1 until none is left; what remains is the
//    core (the 2-core of H). Each peeled vertex u hangs in a tree whose
//    root, its anchor r(u), is a core vertex or — for a component with no
//    core — the last vertex peeled there. u stores its weighted offset
//    a(u) = d_H(u, r(u)), its hop depth and a heavy-light decomposition of
//    its tree (chain head, the head's parent and depth), all in O(n).
//  * Same anchor: the tree path is the only simple path, so d(u, v) =
//    a(u) + a(v) - 2 a(lca(u, v)); the LCA climbs O(log n) heavy chains.
//  * Different core anchors: every u-v path leaves u's tree through r(u)
//    and enters v's through r(v), and a hanging tree never lies on a
//    core-to-core shortest path, so d(u, v) = a(u) + a(v) +
//    d_core(r(u), r(v)), read from a dense table that Dial fills on the
//    core subgraph alone.
//  * A tree-root anchor on either side of distinct anchors: different
//    components, kInfDist.
//
// Answers equal dial_sssp_csr on H exactly (tests/test_serve_kernels.cpp
// checks both kernels source by source on every served H shape).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"

namespace usne::serve {

/// What the engine's structural pass found, and which kernel it picked.
struct KernelInfo {
  bool structural = false;       ///< false: Dial + cache serves point queries
  Vertex core = 0;               ///< vertices left after peeling degree <= 1
  std::int64_t max_depth = 0;    ///< deepest hop depth of a hanging tree
  std::int64_t table_bytes = 0;  ///< the core distance table (0 for dial)
  double build_s = 0;            ///< peel, decomposition and table fill

  const char* name() const noexcept { return structural ? "structural" : "dial"; }

  /// One-line JSON (sorted keys): {"build_s", "core", "max_depth", "name",
  /// "table_bytes"} for structural, {"core", "name"} for dial.
  std::string json() const;
};

class ForestCore {
 public:
  /// Peels `h` and picks the kernel from its core size: the structure is
  /// built when the core's distance table takes no more memory than H's
  /// own CSR and filling it costs no more than 16 SSSPs over all of H (a
  /// dense core would make the fill cubic). Returns nullptr (Dial serves)
  /// otherwise. `info` is filled either way.
  static std::unique_ptr<const ForestCore> build(const WeightedGraph::Csr& h,
                                                 KernelInfo& info);

  /// Exact d_H(u, v) for in-range u, v (kInfDist when disconnected).
  Dist distance(Vertex u, Vertex v) const noexcept;

 private:
  struct Node {
    Dist offset = 0;       // a(u): weighted distance to the anchor
    Vertex anchor = 0;     // r(u)
    Vertex core = -1;      // r(u)'s row in the table; -1 for a tree root
    Vertex head = 0;       // top of u's heavy chain
    Vertex jump = -1;      // the head's parent (-1 at the anchor's chain)
    std::int32_t head_depth = 0;
    std::int32_t depth = 0;
  };

  std::vector<Node> nodes_;
  std::vector<Dist> table_;  // core x core, row-major
  std::size_t core_ = 0;
};

}  // namespace usne::serve
