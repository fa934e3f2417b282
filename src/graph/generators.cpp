#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "graph/stream_gen.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

std::uint64_t pair_key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

std::int64_t max_edges(Vertex n) {
  return static_cast<std::int64_t>(n) * (n - 1) / 2;
}

}  // namespace

Graph gen_gnm(Vertex n, std::int64_t m, std::uint64_t seed) {
  m = std::min(m, max_edges(n));
  Rng rng(seed);
  GraphBuilder builder(n);
  std::unordered_set<std::uint64_t> used;
  used.reserve(static_cast<std::size_t>(m) * 2);
  while (static_cast<std::int64_t>(used.size()) < m) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (used.insert(pair_key(u, v)).second) builder.add_edge(u, v);
  }
  return builder.build();
}

Graph gen_connected_gnm(Vertex n, std::int64_t m, std::uint64_t seed) {
  m = std::min(std::max<std::int64_t>(m, n - 1), max_edges(n));
  Rng rng(seed);
  GraphBuilder builder(n);
  std::unordered_set<std::uint64_t> used;
  used.reserve(static_cast<std::size_t>(m) * 2);

  // Random spanning path: a uniform permutation chained together.
  std::vector<Vertex> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  for (Vertex i = 0; i + 1 < n; ++i) {
    builder.add_edge(perm[static_cast<std::size_t>(i)],
                     perm[static_cast<std::size_t>(i) + 1]);
    used.insert(pair_key(perm[static_cast<std::size_t>(i)],
                         perm[static_cast<std::size_t>(i) + 1]));
  }
  while (static_cast<std::int64_t>(used.size()) < m) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (used.insert(pair_key(u, v)).second) builder.add_edge(u, v);
  }
  return builder.build();
}

Graph gen_random_regular(Vertex n, int d, std::uint64_t seed) {
  assert(d >= 1);
  Rng rng(seed);
  // Configuration model: d stubs per vertex, random perfect matching on
  // stubs; self-loops and duplicates silently dropped by the builder.
  std::vector<Vertex> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (Vertex v = 0; v < n; ++v) {
    for (int i = 0; i < d; ++i) stubs.push_back(v);
  }
  for (std::size_t i = stubs.size(); i > 1; --i) {
    std::swap(stubs[i - 1], stubs[rng.below(i)]);
  }
  GraphBuilder builder(n);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    builder.add_edge(stubs[i], stubs[i + 1]);
  }
  return builder.build();
}

Graph gen_grid(Vertex rows, Vertex cols) {
  GraphBuilder builder(rows * cols);
  auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return builder.build();
}

Graph gen_torus(Vertex rows, Vertex cols) {
  GraphBuilder builder(rows * cols);
  auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      builder.add_edge(id(r, c), id(r, (c + 1) % cols));
      builder.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return builder.build();
}

Graph gen_hypercube(int dims) {
  assert(dims >= 0 && dims < 26);
  const Vertex n = static_cast<Vertex>(1) << dims;
  GraphBuilder builder(n);
  for (Vertex v = 0; v < n; ++v) {
    for (int b = 0; b < dims; ++b) {
      const Vertex u = v ^ (static_cast<Vertex>(1) << b);
      if (v < u) builder.add_edge(v, u);
    }
  }
  return builder.build();
}

Graph gen_path(Vertex n) {
  GraphBuilder builder(n);
  for (Vertex v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return builder.build();
}

Graph gen_cycle(Vertex n) {
  GraphBuilder builder(n);
  for (Vertex v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  if (n >= 3) builder.add_edge(n - 1, 0);
  return builder.build();
}

Graph gen_star(Vertex n) {
  GraphBuilder builder(n);
  for (Vertex v = 1; v < n; ++v) builder.add_edge(0, v);
  return builder.build();
}

Graph gen_complete(Vertex n) {
  GraphBuilder builder(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) builder.add_edge(u, v);
  }
  return builder.build();
}

Graph gen_tree(Vertex n, int arity) {
  assert(arity >= 1);
  GraphBuilder builder(n);
  for (Vertex v = 1; v < n; ++v) builder.add_edge(v, (v - 1) / arity);
  return builder.build();
}

Graph gen_barabasi_albert(Vertex n, int attach, std::uint64_t seed) {
  assert(attach >= 1);
  Rng rng(seed);
  GraphBuilder builder(n);
  // `targets` holds one entry per edge endpoint, so sampling uniformly from
  // it is degree-proportional sampling.
  std::vector<Vertex> targets;
  const Vertex seed_size = static_cast<Vertex>(std::min<std::int64_t>(attach + 1, n));
  for (Vertex u = 0; u < seed_size; ++u) {
    for (Vertex v = u + 1; v < seed_size; ++v) {
      builder.add_edge(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  for (Vertex v = seed_size; v < n; ++v) {
    std::unordered_set<Vertex> chosen;
    while (static_cast<int>(chosen.size()) < attach && !targets.empty()) {
      const Vertex t = targets[rng.below(targets.size())];
      if (t != v) chosen.insert(t);
    }
    // Insert in sorted order, not unordered_set iteration order: the order
    // feeds both the edge list and the `targets` pool future draws index
    // into, so it must not depend on the standard library's hash layout.
    std::vector<Vertex> picks(chosen.begin(), chosen.end());
    std::sort(picks.begin(), picks.end());
    for (const Vertex t : picks) {
      builder.add_edge(v, t);
      targets.push_back(v);
      targets.push_back(t);
    }
  }
  return builder.build();
}

Graph gen_watts_strogatz(Vertex n, int k, double rewire_p, std::uint64_t seed) {
  assert(k >= 2);
  Rng rng(seed);
  GraphBuilder builder(n);
  std::unordered_set<std::uint64_t> used;
  for (Vertex v = 0; v < n; ++v) {
    for (int j = 1; j <= k / 2; ++j) {
      Vertex u = static_cast<Vertex>((v + j) % n);
      if (rng.chance(rewire_p)) {
        // Rewire to a uniform non-self target not already used.
        for (int attempt = 0; attempt < 16; ++attempt) {
          const Vertex cand =
              static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
          if (cand != v && used.find(pair_key(v, cand)) == used.end()) {
            u = cand;
            break;
          }
        }
      }
      if (u != v && used.insert(pair_key(v, u)).second) builder.add_edge(v, u);
    }
  }
  return builder.build();
}

Graph gen_caveman(Vertex cliques, Vertex clique_size) {
  const Vertex n = cliques * clique_size;
  GraphBuilder builder(n);
  for (Vertex c = 0; c < cliques; ++c) {
    const Vertex base = c * clique_size;
    for (Vertex i = 0; i < clique_size; ++i) {
      for (Vertex j = i + 1; j < clique_size; ++j) {
        builder.add_edge(base + i, base + j);
      }
    }
    // Link this clique's last vertex to the next clique's first vertex.
    if (cliques > 1) {
      const Vertex next_base = ((c + 1) % cliques) * clique_size;
      builder.add_edge(base + clique_size - 1, next_base);
    }
  }
  return builder.build();
}

Graph gen_dumbbell(Vertex clique_size, Vertex bridge) {
  const Vertex n = 2 * clique_size + bridge;
  GraphBuilder builder(n);
  for (Vertex i = 0; i < clique_size; ++i) {
    for (Vertex j = i + 1; j < clique_size; ++j) {
      builder.add_edge(i, j);
      builder.add_edge(clique_size + bridge + i, clique_size + bridge + j);
    }
  }
  Vertex prev = clique_size - 1;
  for (Vertex b = 0; b < bridge; ++b) {
    builder.add_edge(prev, clique_size + b);
    prev = clique_size + b;
  }
  builder.add_edge(prev, clique_size + bridge);  // into second clique
  return builder.build();
}

Graph gen_family(const std::string& family, Vertex n, std::uint64_t seed) {
  if (n < 0) {
    throw std::invalid_argument("gen_family: n must be >= 0, got " +
                                std::to_string(n));
  }
  if (family == "er") return gen_connected_gnm(n, 4 * static_cast<std::int64_t>(n), seed);
  if (family == "er_sparse") return gen_gnm(n, 2 * static_cast<std::int64_t>(n), seed);
  if (family == "ba") return gen_barabasi_albert(n, 3, seed);
  if (family == "grid") {
    const Vertex side = std::max<Vertex>(2, static_cast<Vertex>(std::lround(std::sqrt(n))));
    return gen_grid(side, side);
  }
  if (family == "torus") {
    const Vertex side = std::max<Vertex>(3, static_cast<Vertex>(std::lround(std::sqrt(n))));
    return gen_torus(side, side);
  }
  if (family == "hypercube") {
    int dims = 0;
    while ((static_cast<Vertex>(1) << (dims + 1)) <= n) ++dims;
    return gen_hypercube(dims);
  }
  if (family == "path") return gen_path(n);
  if (family == "cycle") return gen_cycle(n);
  if (family == "star") return gen_star(n);
  if (family == "tree") return gen_tree(n, 2);
  if (family == "ws") return gen_watts_strogatz(n, 6, 0.1, seed);
  if (family == "caveman") {
    const Vertex size = 8;
    return gen_caveman(std::max<Vertex>(1, n / size), size);
  }
  if (family == "dumbbell") {
    const Vertex k = std::max<Vertex>(3, n / 3);
    return gen_dumbbell(k, std::max<Vertex>(1, n - 2 * k));
  }
  if (family == "regular") return gen_random_regular(n, 4, seed);
  if (family == "rmat") {
    // Power-of-two vertex count like hypercube; ~8 undirected edges per
    // vertex (the Graph500 edge factor after dedup).
    int scale = 0;
    while ((static_cast<Vertex>(1) << (scale + 1)) <= n) ++scale;
    return stream_rmat(scale, 8 * (static_cast<std::int64_t>(1) << scale),
                       seed);
  }
  if (family == "complete") return gen_complete(std::min<Vertex>(n, 64));
  std::string accepted;
  for (const std::string& name : all_families()) accepted += name + ", ";
  throw std::invalid_argument("unknown graph family '" + family +
                              "' (accepted: " + accepted +
                              "er_sparse, complete)");
}

const std::vector<std::string>& all_families() {
  static const std::vector<std::string> families = {
      "er",   "ba",     "grid",    "torus",    "hypercube", "path", "cycle",
      "star", "tree",   "ws",      "caveman",  "dumbbell",  "regular",
      "rmat"};
  return families;
}

}  // namespace usne
