#pragma once

// Fast centralized construction of ultra-sparse near-additive emulators —
// the paper's §3.3: a centralized simulation of the distributed algorithm.
//
// Per phase i:
//   1. (S, delta_i, deg_i+1)-source detection from the centers of P_i
//      (capped k-nearest; see path/source_detection.hpp). Popular centers
//      are those that hear >= deg_i other centers.
//   2. A deterministic digit-sweep ruling set S_i on the popular centers
//      with separation parameter q = 2*delta_i.
//   3. A BFS forest rooted at S_i to depth rul_i + delta_i; one supercluster
//      per tree (no hub splitting — unnecessary centrally, §3.3), with
//      emulator edges (root, center, d_G(root, center)) for every spanned
//      center.
//   4. Unspanned clusters form U_i and interconnect with all their
//      neighbouring centers (their detection lists are exact because they
//      are unpopular with unpopular neighbours — Lemma 3.4 / Theorem 3.1).
//
// Runs in O~(|E| * n^rho) per phase — the scalable builder used by the
// large-n experiments (bench E2, E6). Produces the same guarantees as the
// distributed construction: |H| <= n^(1+1/kappa), stretch (alpha_ell,
// beta_ell) from DistributedParams.

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Runs the §3.3 construction. Reads exec.keep_audit_data and
/// exec.profile: the profile gets one wall-time entry per (phase, task) —
/// "p<i>.detect", "p<i>.ruling", "p<i>.forest", "p<i>.interconnect" (ruling
/// and forest only in phases that run them) — and each task opens a trace
/// span (core.detect, core.ruling, core.forest, core.interconnect).
BuildResult build_emulator_fast(const Graph& g, const DistributedParams& params,
                                const ExecOptions& exec = {});

}  // namespace usne
