#pragma once

// [EN17a] Elkin–Neiman baseline (SODA'17): randomized sampled
// superclustering, as characterized in the paper's §2:
//
//   cluster centers are sampled with probability 1/deg_i; every cluster
//   whose center lies within delta_i of a sampled center joins the nearest
//   sampled cluster. Clusters with no sampled center nearby become
//   unclustered and interconnect with all cluster centers within delta_i.
//
// Uses the optimized [EN17a] degree sequence deg_i =
// n^((2^i - 1)/(gamma*kappa) + 1/kappa), which gives linear-size emulators
// in expectation — but with a leading constant > 1 and per-phase analysis
// that cannot reach the exact n^(1+1/kappa) of Algorithm 1 (paper §2:
// "the size analysis of [EN17a] ... cannot be used to provide ultra-sparse
// emulators"). Randomized; no deterministic guarantee.

#include <cstdint>

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Runs the EN17a-style randomized construction.
BuildResult build_emulator_en17(const Graph& g, int kappa, double eps,
                                std::uint64_t seed);

}  // namespace usne
