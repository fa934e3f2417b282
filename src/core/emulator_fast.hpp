#pragma once

// Fast centralized construction of ultra-sparse near-additive emulators —
// the paper's §3.3: a centralized simulation of the distributed algorithm,
// run by the centralized phase loop (core/phase_loop.hpp). Its two steps
// insert weighted edges:
//   * superclustering: (root, c, d_G(root, c)) for every center c that the
//     BFS forest rooted at the ruling set S_i spans; one supercluster per
//     tree (no hub splitting — unnecessary centrally, §3.3);
//   * interconnection: (c, s, d_G(c, s)) for every center s that a U_i
//     center c heard in detection (exact lists — U_i and its neighbours
//     are unpopular, Lemma 3.4 / Theorem 3.1).
//
// Runs in O~(|E| * n^rho) per phase — the scalable builder used by the
// large-n experiments (bench E2, E6). Produces the same guarantees as the
// distributed construction: |H| <= n^(1+1/kappa), stretch (alpha_ell,
// beta_ell) from DistributedParams.

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Runs the §3.3 construction; Task 1 stores the detection lists of P_i's
/// centers only. Reads exec.keep_audit_data and exec.profile: the profile
/// gets one entry of wall time and peak RSS per (phase, task) —
/// "p<i>.detect", "p<i>.ruling", "p<i>.forest", "p<i>.interconnect" (ruling
/// and forest only in phases that run them) — and each task opens a trace
/// span (core.detect, core.ruling, core.forest, core.interconnect).
BuildResult build_emulator_fast(const Graph& g, const DistributedParams& params,
                                const ExecOptions& exec = {});

}  // namespace usne
