#pragma once

// Centralized construction of ultra-sparse near-additive emulators —
// the paper's Algorithm 1 (§2.1).
//
// Superclustering-and-interconnection with the original [EP01] degree
// sequence deg_i = n^(2^i/kappa) and the paper's buffer-set N_i mechanism:
//
//  * Phase i processes the centers of P_i sequentially. A popped center rC
//    explores to depth delta_i; Gamma(rC) = centers still in S_i u N_i
//    within delta_i. Edges (rC, rC') of weight d_G(rC, rC') are added for
//    all rC' in Gamma(rC).
//  * If |Gamma(rC)| < deg_i, the cluster joins U_i (edges charged to rC:
//    interconnection).
//  * Otherwise a supercluster around rC absorbs C and all clusters of
//    Gamma(rC) (edges charged to the joining centers: superclustering), and
//    every center rC'' in S_i at distance in (delta_i, 2*delta_i] moves to
//    the buffer N_i with this supercluster as its fallback.
//  * At the end of the phase, buffered centers that were never absorbed
//    join their fallback supercluster via a buffer-join edge of weight
//    d_G(root, rC'') <= 2*delta_i, charged to rC''.
//
// Guarantees (verified by the audit module and the test suite):
//   |H| <= n^(1+1/kappa)  (exactly; leading constant 1 — Lemma 2.4),
//   d_G <= d_H <= alpha_ell * d_G + beta_ell  (Lemma 2.10 with the computed
//   recurrences), every edge weight equals the exact graph distance.

#include <vector>

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Runs Algorithm 1. The graph may be disconnected; explorations never
/// cross components and the guarantees hold per component. Reads
/// exec.keep_audit_data. `processing_order` is the order of cluster
/// centers within every phase; empty = ascending vertex id (the
/// deterministic default, and the only order usne::build uses). The paper
/// notes the popular/unpopular designation depends on this order (§2.1.1,
/// star example); tests exercise both orders through this hook.
BuildResult build_emulator_centralized(
    const Graph& g, const CentralizedParams& params, const ExecOptions& exec = {},
    const std::vector<Vertex>& processing_order = {});

}  // namespace usne
