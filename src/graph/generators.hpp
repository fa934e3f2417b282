#pragma once

// Synthetic graph generators: the workload library for every experiment.
//
// All generators are deterministic given a seed; unweighted and undirected.
// Families cover the spectrum the emulator literature cares about: sparse
// random (ER), heavy-tailed (Barabási–Albert), high-girth lattices (grid /
// torus / hypercube), trees, small-world, and pathological shapes (star —
// the order-dependence example of paper §2.1.1 — dumbbell, caveman).

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace usne {

/// Erdős–Rényi G(n, m): exactly m distinct uniform edges (or the maximum
/// possible if m exceeds it).
Graph gen_gnm(Vertex n, std::int64_t m, std::uint64_t seed);

/// Erdős–Rényi G(n, m) post-processed to be connected: a uniformly random
/// spanning path is laid down first, remaining edges drawn uniformly.
/// Convenient for stretch experiments (distances all finite).
Graph gen_connected_gnm(Vertex n, std::int64_t m, std::uint64_t seed);

/// Random d-regular-ish multigraph via configuration model; collisions and
/// loops dropped, so degrees are <= d but concentrated at d.
Graph gen_random_regular(Vertex n, int d, std::uint64_t seed);

/// 2D grid, rows x cols vertices.
Graph gen_grid(Vertex rows, Vertex cols);

/// 2D torus (grid with wraparound), rows x cols vertices.
Graph gen_torus(Vertex rows, Vertex cols);

/// Hypercube on 2^dims vertices.
Graph gen_hypercube(int dims);

/// Path on n vertices.
Graph gen_path(Vertex n);

/// Cycle on n vertices.
Graph gen_cycle(Vertex n);

/// Star: center 0 connected to all others (paper §2.1.1 example).
Graph gen_star(Vertex n);

/// Complete graph on n vertices.
Graph gen_complete(Vertex n);

/// Balanced b-ary tree on n vertices (vertex i's parent is (i-1)/b).
Graph gen_tree(Vertex n, int arity);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `attach` existing vertices proportionally to degree.
Graph gen_barabasi_albert(Vertex n, int attach, std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice with k/2 neighbours each side,
/// each edge rewired with probability p.
Graph gen_watts_strogatz(Vertex n, int k, double rewire_p, std::uint64_t seed);

/// Connected caveman: `cliques` cliques of `clique_size` vertices linked in
/// a ring. Dense local clusters — stresses the superclustering machinery.
Graph gen_caveman(Vertex cliques, Vertex clique_size);

/// Dumbbell: two cliques of size k joined by a path of length `bridge`.
Graph gen_dumbbell(Vertex clique_size, Vertex bridge);

/// Named-family dispatcher used by parameterized tests and benches.
/// Families: all_families(), plus er_sparse and complete.
/// `n` is a target size; the generator may round (e.g. grids use sqrt).
/// Throws std::invalid_argument for n < 0, and for an unknown family,
/// naming the accepted names.
Graph gen_family(const std::string& family, Vertex n, std::uint64_t seed);

/// The family names gen_family accepts, except er_sparse and complete.
const std::vector<std::string>& all_families();

}  // namespace usne
