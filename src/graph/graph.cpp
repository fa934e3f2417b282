#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace usne {

Graph::Graph(Vertex n, std::vector<Edge> edges)
    : n_(n), edges_(std::move(edges)), offsets_(static_cast<std::size_t>(n) + 1, 0) {
  assert(n >= 0);
  adjacency_.resize(edges_.size() * 2);

  // Count degrees.
  std::vector<std::int64_t> degree(static_cast<std::size_t>(n), 0);
  for (const Edge& e : edges_) {
    assert(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n && e.u < e.v);
    ++degree[static_cast<std::size_t>(e.u)];
    ++degree[static_cast<std::size_t>(e.v)];
  }
  for (Vertex v = 0; v < n; ++v) {
    offsets_[static_cast<std::size_t>(v) + 1] =
        offsets_[static_cast<std::size_t>(v)] + degree[static_cast<std::size_t>(v)];
    max_degree_ = std::max(max_degree_, degree[static_cast<std::size_t>(v)]);
  }

  // Fill adjacency.
  std::vector<std::int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges_) {
    adjacency_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++)] = e.v;
    adjacency_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++)] = e.u;
  }
  for (Vertex v = 0; v < n; ++v) {
    auto begin = adjacency_.begin() + offsets_[static_cast<std::size_t>(v)];
    auto end = adjacency_.begin() + offsets_[static_cast<std::size_t>(v) + 1];
    std::sort(begin, end);
  }
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u < 0 || u >= n_ || v < 0 || v >= n_) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void check_vertex(Vertex n, Vertex v, const char* what) {
  if (v < 0 || v >= n) {
    throw std::out_of_range(std::string(what) + ": vertex " + std::to_string(v) +
                            " is out of range [0, " + std::to_string(n) + ")");
  }
}

void check_vertex(const Graph& g, Vertex v, const char* what) {
  check_vertex(g.num_vertices(), v, what);
}

bool GraphBuilder::add_edge(Vertex u, Vertex v) {
  if (u < 0 || u >= n_ || v < 0 || v >= n_ || u == v) return false;
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v});
  return true;
}

Graph GraphBuilder::build() const {
  std::vector<Edge> normalized = edges_;
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());
  return Graph(n_, std::move(normalized));
}

}  // namespace usne
