#include "path/bfs.hpp"

#include <algorithm>
#include <cassert>

namespace usne {

std::vector<Dist> bfs_distances(const Graph& g, Vertex source) {
  const Vertex n = g.num_vertices();
  std::vector<Dist> dist(static_cast<std::size_t>(n), kInfDist);
  std::vector<Vertex> queue;
  queue.reserve(static_cast<std::size_t>(n));
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    const Dist dv = dist[static_cast<std::size_t>(v)];
    for (const Vertex u : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] == kInfDist) {
        dist[static_cast<std::size_t>(u)] = dv + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

void bounded_bfs(const Graph& g, Vertex source, Dist depth,
                 std::vector<Dist>& dist, std::vector<Vertex>& touched) {
  assert(dist.size() == static_cast<std::size_t>(g.num_vertices()));
  touched.clear();
  dist[static_cast<std::size_t>(source)] = 0;
  touched.push_back(source);
  // `touched` doubles as the BFS queue: vertices are appended in distance
  // order, so iterating it front-to-back is exactly the BFS order.
  for (std::size_t head = 0; head < touched.size(); ++head) {
    const Vertex v = touched[head];
    const Dist dv = dist[static_cast<std::size_t>(v)];
    if (dv >= depth) continue;
    for (const Vertex u : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] == kInfDist) {
        dist[static_cast<std::size_t>(u)] = dv + 1;
        touched.push_back(u);
      }
    }
  }
}

MultiSourceBfsResult multi_source_bfs(const Graph& g,
                                      std::span<const Vertex> sources,
                                      Dist depth) {
  const Vertex n = g.num_vertices();
  MultiSourceBfsResult result;
  result.dist.assign(static_cast<std::size_t>(n), kInfDist);
  result.source.assign(static_cast<std::size_t>(n), -1);
  result.parent.assign(static_cast<std::size_t>(n), -1);

  // Seed sources in ascending id order so that on equal distance the
  // smaller source id wins deterministically (queue order is stable).
  std::vector<Vertex> queue;
  std::vector<Vertex> sorted(sources.begin(), sources.end());
  std::sort(sorted.begin(), sorted.end());
  for (const Vertex s : sorted) {
    check_vertex(g, s, "multi_source_bfs");
    if (result.dist[static_cast<std::size_t>(s)] == 0) continue;  // duplicate
    result.dist[static_cast<std::size_t>(s)] = 0;
    result.source[static_cast<std::size_t>(s)] = s;
    queue.push_back(s);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    const Dist dv = result.dist[static_cast<std::size_t>(v)];
    if (dv >= depth) continue;
    for (const Vertex u : g.neighbors(v)) {
      if (result.dist[static_cast<std::size_t>(u)] == kInfDist) {
        result.dist[static_cast<std::size_t>(u)] = dv + 1;
        result.source[static_cast<std::size_t>(u)] =
            result.source[static_cast<std::size_t>(v)];
        result.parent[static_cast<std::size_t>(u)] = v;
        queue.push_back(u);
      }
    }
  }
  return result;
}

Dist eccentricity(const Graph& g, Vertex source) {
  const auto dist = bfs_distances(g, source);
  Dist ecc = 0;
  for (const Dist d : dist) {
    if (d != kInfDist) ecc = std::max(ecc, d);
  }
  return ecc;
}

}  // namespace usne
