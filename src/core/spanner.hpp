#pragma once

// Near-additive spanners — the paper's §4.
//
// The emulator's phase loop (core/phase_loop.hpp), but every insertion of a
// weighted emulator edge (u, v, d) is replaced by inserting an actual u-v
// path of length <= d from G, so H is a *subgraph* of G:
//   * superclustering: the root-paths of joining centers inside the BFS
//     forest F_i (<= n-1 forest edges per phase);
//   * interconnection: the recorded shortest path between the two centers.
//
// The §4 construction uses the [EN17a]-style degree sequence (SpannerParams:
// gamma = max{2, log log kappa}, transition phase n^(rho/2)), which makes
// the per-phase interconnection path cost decay geometrically and yields
// O(n^(1+1/kappa)) total edges. Running the *same* skeleton with the §3
// degree sequence instead reproduces the [EM19] baseline with its
// O(beta * n^(1+1/kappa)) edges — the comparison of bench E5.
//
// This builder runs the centralized loop (paper §3.3);
// core/spanner_distributed.hpp runs the CONGEST one.

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Runs the §4 skeleton. `Params` picks the degree sequence:
/// SpannerParams, the paper's [EN17a] sequence, or DistributedParams, the
/// §3 sequence of the [EM19] baseline, whose edge count is Theta(beta)
/// times larger at equal kappa. All edges have weight 1 and exist in G.
/// Task 1 stores every vertex's list: path_to walks through any vertex.
/// Reads exec.keep_audit_data and exec.profile (one entry of wall time and
/// peak RSS per (phase, task) and one trace span per task, as in
/// build_emulator_fast).
template <typename Params>
BuildResult build_spanner(const Graph& g, const Params& params,
                          const ExecOptions& exec = {});

/// True if every edge of h is an edge of g (the spanner subgraph property).
bool is_subgraph(const WeightedGraph& h, const Graph& g);

}  // namespace usne
