#pragma once

// [TZ06] Thorup–Zwick baseline (SODA'06), the scale-free randomized variant
// of SAI as characterized in the paper's §1.2:
//
//   clusters of P_i are sampled independently with probability 1/deg_i;
//   each unsampled cluster joins the closest sampled cluster (an emulator
//   edge to it), and additionally connects to every other unsampled cluster
//   that is closer than the closest sampled cluster. Sampled clusters (with
//   everything that joined them) form P_{i+1}.
//
// Randomized, size O(n^(1+1/kappa)) in expectation with a leading constant
// > 1 — bench E1 contrasts it with the deterministic exactly-n^(1+1/kappa)
// of Algorithm 1.

#include <cstdint>

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Runs the TZ06-style randomized construction with the Ep01 degree
/// sequence (deg_i = n^(2^i/kappa)) and ell = ceil(log2((kappa+1)/2)) + 1
/// levels.
BuildResult build_emulator_tz06(const Graph& g, int kappa, std::uint64_t seed);

}  // namespace usne
