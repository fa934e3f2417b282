#pragma once

// Distributed construction of ultra-sparse near-additive emulators in the
// CONGEST model — the paper's §3.1, executed on the simulator of
// src/congest/ with full round/message accounting and cap enforcement.
//
// Per phase i (superclustering step, i < ell):
//   Task 1  Popular-cluster detection: Algorithm 2 (modified Bellman–Ford)
//           from the centers of P_i, delta_i strides with forwarding cap
//           deg_i + 1.
//   Task 2  Deterministic ruling set S_i on the popular centers W_i with
//           separation parameter q = 2*delta_i (digit sweep, base ~ n^rho).
//   Task 3  BFS forest rooted at S_i to depth rul_i + delta_i, then a
//           backtracking convergecast of <origin, depth> messages toward
//           the roots, in rul_i + delta_i strides of 2*deg_i + 2 rounds.
//           A vertex holding >= 2*deg_i + 2 messages is a *hub*: it splits
//           from its tree and forms superclusters locally — itself as
//           center if it is a cluster center, otherwise one supercluster
//           per greedily-packed child group of message count in
//           [2*deg_i+2, 6*deg_i+6], centered at the smallest member.
//           A final pipelined down-cast informs every joining center of its
//           new center and superclustering-edge weight, so that BOTH
//           endpoints of every emulator edge know it (the paper's central
//           correctness obligation for emulators in CONGEST).
//   Interconnection  clusters never superclustered form U_i; a second
//           Algorithm 2 run from U_i centers gives the reverse endpoints
//           their knowledge; edge weights are exact graph distances.
//
// The returned result carries, besides the emulator and audit data, the
// per-node local edge knowledge accumulated *only* through received
// messages — BuildOutput::endpoints_consistent() verifies the
// both-endpoints-know property against H.

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Runs the §3.1 construction on a fresh Network over g. Reads every
/// ExecOptions field but the seed: num_threads sets the scheduler's lanes
/// (outputs and counts are bit-identical for any value), transport the
/// delivery model, hub_threshold_factor the Task 3 hub threshold (throws
/// std::invalid_argument below 1), and profile collects one entry of
/// scheduler stage times per (phase, task) into base.profile.
DistributedBuildResult build_emulator_distributed(
    const Graph& g, const DistributedParams& params, const ExecOptions& exec = {});

}  // namespace usne
