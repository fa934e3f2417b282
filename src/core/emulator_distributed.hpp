#pragma once

// Distributed construction of ultra-sparse near-additive emulators in the
// CONGEST model — the paper's §3.1, run by the CONGEST phase loop
// (core/phase_loop.hpp) on the simulator of src/congest/ with full
// round/message accounting and cap enforcement. The loop runs detection,
// the ruling set S_i and the BFS forest rooted at S_i to depth
// rul_i + delta_i; this construction supplies two steps:
//   Task 3 ("backtrack")  a backtracking convergecast of <origin, depth>
//           messages toward the roots, in rul_i + delta_i strides of
//           2*deg_i + 2 rounds. A vertex holding >= 2*deg_i + 2 messages
//           is a *hub*: it splits from its tree and forms superclusters
//           locally — itself as center if it is a cluster center,
//           otherwise one supercluster per greedily-packed child group of
//           message count in [2*deg_i+2, 6*deg_i+6], centered at the
//           smallest member. A final pipelined down-cast informs every
//           joining center of its new center and superclustering-edge
//           weight, so that BOTH endpoints of every emulator edge know it
//           (the paper's central correctness obligation for emulators in
//           CONGEST).
//   Interconnection  each U_i center adds an edge to every center it heard
//           in Task 1, weighted by the exact graph distance; before phase
//           ell, a second Algorithm 2 run from U_i's centers gives the
//           other endpoints their knowledge.
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
/// scheduler stage times and peak RSS per (phase, task) into base.profile.
/// Both detections store the lists of P_i's centers only.
DistributedBuildResult build_emulator_distributed(
    const Graph& g, const DistributedParams& params, const ExecOptions& exec = {});

}  // namespace usne
