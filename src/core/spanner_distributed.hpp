#pragma once

// Distributed CONGEST construction of near-additive spanners — the paper's
// §4, run on the simulator with full round/message metering.
//
// The spanner variant is *simpler* than the emulator in CONGEST (paper §4:
// "the construction of superclusters becomes simpler... there is no need to
// define hub-vertices"), because path edges are added locally:
//
//   * Superclustering: after the BFS forest is built, every spanned center
//     convergecasts a single 1-word join mark toward its root; every vertex
//     that holds a mark adds its parent edge to H. No per-origin payload
//     ever travels, so no hub splitting is needed and each tree edge
//     carries at most one mark (deduplicated by the relays).
//   * Interconnection: a cluster in U_i traces a path-mark along the
//     recorded Algorithm 2 predecessor chain to each neighbouring center;
//     every relay adds the edge to its predecessor. Marks are pipelined one
//     per edge per round.
//
// Both endpoints of every spanner edge trivially know it (it is their own
// incident graph edge).

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Runs the §4 spanner on a fresh Network over g. `Params` picks the
/// degree sequence as in build_spanner: SpannerParams (Corollary 4.4) or
/// DistributedParams (the [EM19] baseline). Reads exec.keep_audit_data,
/// num_threads (outputs and counts are bit-identical for any value),
/// transport and profile (scheduler stage times per (phase, task) into
/// base.profile). `local` stays empty.
template <typename Params>
DistributedBuildResult build_spanner_congest(const Graph& g, const Params& params,
                                             const ExecOptions& exec = {});

}  // namespace usne
