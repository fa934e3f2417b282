#include "path/source_detection.hpp"

#include <algorithm>
#include <cstdint>

namespace usne {
namespace {

/// One hit in the detection log: `vertex` recorded `source`, through
/// `pred`, at the distance of the stride the record belongs to.
struct Record {
  Vertex vertex;
  Vertex source;
  Vertex pred;
};

}  // namespace

Dist SourceDetection::distance_to(Vertex v, Vertex source) const {
  for (const SourceHit& hit : at(v)) {
    if (hit.source == source) return hit.dist;
  }
  return kInfDist;
}

std::vector<Vertex> SourceDetection::path_to(Vertex v, Vertex source) const {
  std::vector<Vertex> path;
  Vertex cur = v;
  while (cur != -1) {
    path.push_back(cur);
    if (cur == source) return path;
    const auto hits = at(cur);
    const auto it = std::find_if(hits.begin(), hits.end(), [&](const SourceHit& h) {
      return h.source == source;
    });
    if (it == hits.end()) return {};  // source not detected along the chain
    cur = it->pred;
  }
  return {};
}

SourceDetection detect_sources(const Graph& g, std::span<const Vertex> sources,
                               Dist depth, std::size_t k) {
  const Vertex n = g.num_vertices();
  const auto nz = static_cast<std::size_t>(n);
  for (const Vertex s : sources) check_vertex(g, s, "detect_sources");
  std::vector<Vertex> sorted(sources.begin(), sources.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (k == 0) sorted.clear();

  // Per vertex, the duplicate-test stamp (see header) and the number of
  // hits recorded so far. mark == ~s: the vertex holds s from an earlier
  // stride; mark == s: it recorded s in this stride, at log[slot[v]]. Any
  // other value is stale and means it lacks s; n is neither s nor ~s for
  // any source.
  struct State {
    Vertex mark;
    std::uint32_t count;
  };
  std::vector<State> state(nz, State{n, 0});
  std::vector<std::size_t> slot(nz, 0);

  // Saturation. A full vertex never records again, so an arc into it does
  // nothing, unless the vertex filled up in the current group: the arc may
  // still lower its predecessor for s. A vertex therefore joins `full` (a
  // bitset, small enough to stay cached) at the end of the group that
  // filled it, and open_nbrs[v] counts v's neighbours outside `full`: a
  // frontier vertex with none is skipped without reading its row.
  std::vector<std::uint64_t> full((nz + 63) / 64, 0);
  std::vector<std::uint32_t> open_nbrs(nz);
  for (Vertex v = 0; v < n; ++v) {
    open_nbrs[static_cast<std::size_t>(v)] = static_cast<std::uint32_t>(g.degree(v));
  }
  std::vector<Vertex> filled;  // vertices the current group filled up
  const auto saturate = [&](Vertex u) {
    full[static_cast<std::size_t>(u) >> 6] |= std::uint64_t{1} << (u & 63);
    for (const Vertex w : g.neighbors(u)) --open_nbrs[static_cast<std::size_t>(w)];
  };

  // Every hit, stride after stride (stride d records distance d); within a
  // stride, grouped by source in ascending id. Each source's group in
  // stride d is its frontier F_s(d). stride_end[d] closes stride d.
  std::vector<Record> log;
  log.reserve(sorted.size());
  for (const Vertex s : sorted) {
    log.push_back({s, s, -1});
    state[static_cast<std::size_t>(s)].count = 1;
    if (k == 1) saturate(s);
  }
  std::vector<std::size_t> stride_end = {log.size()};

  std::size_t older_begin = 0;  // F(d - 2) = log[older_begin, prev_begin)
  std::size_t prev_begin = 0;   // F(d - 1) = log[prev_begin, prev_end)
  std::size_t prev_end = log.size();
  for (Dist d = 1; d <= depth && prev_begin < prev_end; ++d) {
    std::size_t older = older_begin;
    for (std::size_t group = prev_begin; group < prev_end;) {
      const Vertex s = log[group].source;
      std::size_t group_end = group;
      while (group_end < prev_end && log[group_end].source == s) ++group_end;

      while (older < prev_begin && log[older].source < s) ++older;
      for (; older < prev_begin && log[older].source == s; ++older) {
        state[static_cast<std::size_t>(log[older].vertex)].mark = ~s;
      }
      for (std::size_t r = group; r < group_end; ++r) {
        state[static_cast<std::size_t>(log[r].vertex)].mark = ~s;
      }

      // Walk F_s(d - 1). A vertex reached again in this stride keeps its
      // smallest predecessor.
      for (std::size_t r = group; r < group_end; ++r) {
        const Vertex v = log[r].vertex;
        if (open_nbrs[static_cast<std::size_t>(v)] == 0) continue;
        for (const Vertex u : g.neighbors(v)) {
          const auto ui = static_cast<std::size_t>(u);
          if ((full[ui >> 6] >> (ui & 63)) & 1) continue;
          State& st = state[ui];
          if (st.mark == s) {
            Vertex& pred = log[slot[ui]].pred;
            pred = std::min(pred, v);
            continue;
          }
          if (st.mark == ~s) continue;
          st.mark = s;
          if (++st.count == k) filled.push_back(u);
          slot[ui] = log.size();
          log.push_back({u, s, v});
        }
      }
      for (const Vertex u : filled) saturate(u);
      filled.clear();
      group = group_end;
    }
    older_begin = prev_begin;
    prev_begin = prev_end;
    prev_end = log.size();
    stride_end.push_back(prev_end);
  }

  // Stable counting sort of the log by vertex into the CSR: each vertex's
  // records keep log order, which is (dist, source) order.
  std::vector<std::size_t> offsets(nz + 1, 0);
  for (std::size_t v = 0; v < nz; ++v) offsets[v + 1] = offsets[v] + state[v].count;
  std::copy(offsets.begin(), offsets.end() - 1, slot.begin());
  std::vector<SourceHit> hits(log.size());
  std::size_t r = 0;
  for (std::size_t d = 0; d < stride_end.size(); ++d) {
    for (; r < stride_end[d]; ++r) {
      const Record& rec = log[r];
      hits[slot[static_cast<std::size_t>(rec.vertex)]++] = {
          rec.source, static_cast<Dist>(d), rec.pred};
    }
  }
  return SourceDetection(std::move(offsets), std::move(hits));
}

}  // namespace usne
