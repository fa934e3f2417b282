#include "path/source_detection.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace usne {
namespace {

/// One hit in the detection log: `vertex` recorded `source`, through
/// `pred`, at the distance of the stride the record belongs to.
struct Record {
  Vertex vertex;
  Vertex source;
  Vertex pred;
};

/// Records in fixed-size chunks, indexed from 0 for the log's whole life.
/// Growing never copies a record or holds two buffers, as a vector's
/// doubling would (that copy was a third of the build's peak RSS at
/// n = 2^17), and drop_before frees the chunks wholly before an index.
class RecordLog {
 public:
  std::size_t size() const { return size_; }

  Record& operator[](std::size_t i) { return chunks_[i >> kShift][i & kMask]; }

  void push_back(const Record& r) {
    if (size_ == chunks_.size() << kShift) {
      chunks_.emplace_back(new Record[kChunk]);  // left unwritten until used
    }
    (*this)[size_++] = r;
  }

  /// Frees the chunks that end at or before record i.
  void drop_before(std::size_t i) {
    for (; dropped_ < (i >> kShift); ++dropped_) chunks_[dropped_].reset();
  }

 private:
  static constexpr unsigned kShift = 16;
  static constexpr std::size_t kChunk = std::size_t{1} << kShift;
  static constexpr std::size_t kMask = kChunk - 1;
  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;  // chunks_[0, dropped_) are freed
};

}  // namespace

KeepSet::KeepSet(Vertex n, std::span<const Vertex> keep)
    : n_(n), bits_((static_cast<std::size_t>(n) + 63) / 64, 0) {
  for (const Vertex v : keep) {
    check_vertex(n, v, "KeepSet");
    const auto i = static_cast<std::size_t>(v);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((bits_[i >> 6] & bit) != 0) continue;
    bits_[i >> 6] |= bit;
    ++count_;
  }
}

void KeepSet::require(Vertex v, const char* what) const {
  if (contains(v)) return;
  throw std::logic_error(std::string(what) + ": vertex " + std::to_string(v) +
                         " is not in the keep set, so its list was not stored");
}

KeepSet KeepSet::all(Vertex n) {
  KeepSet keep(n, {});
  const auto nz = static_cast<std::size_t>(n);
  std::fill(keep.bits_.begin(), keep.bits_.end(), ~std::uint64_t{0});
  if (nz % 64 != 0) keep.bits_.back() = (std::uint64_t{1} << (nz % 64)) - 1;
  keep.count_ = n;
  return keep;
}

void check_keep_set(const KeepSet& keep, Vertex n, const char* what) {
  if (keep.num_vertices() == n) return;
  throw std::invalid_argument(std::string(what) + ": keep set over " +
                              std::to_string(keep.num_vertices()) +
                              " vertices, graph has " + std::to_string(n));
}

Dist SourceDetection::distance_to(Vertex v, Vertex source) const {
  for (const SourceHit& hit : at(v)) {
    if (hit.source == source) return hit.dist;
  }
  return kInfDist;
}

SourceDetection detect_sources(const Graph& g, std::span<const Vertex> sources,
                               Dist depth, std::size_t k, KeepSet keep) {
  const Vertex n = g.num_vertices();
  const auto nz = static_cast<std::size_t>(n);
  for (const Vertex s : sources) check_vertex(g, s, "detect_sources");
  check_keep_set(keep, n, "detect_sources");
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

  // The hits, stride after stride (stride d records distance d); within a
  // stride, grouped by source in ascending id. Each source's group in
  // stride d is its frontier F_s(d). stride_end[d] closes stride d.
  RecordLog log;
  for (const Vertex s : sorted) {
    log.push_back({s, s, -1});
    state[static_cast<std::size_t>(s)].count = 1;
    if (k == 1) saturate(s);
  }
  std::vector<std::size_t> stride_end = {log.size()};

  // Stride d is read by strides d + 1 and d + 2 only. After that it
  // retires: its kept records move to `kept` (kept_end[d] closes them
  // there) and the log frees its chunks.
  RecordLog kept;
  std::vector<std::size_t> kept_end;
  const auto retire = [&]() {
    const std::size_t d = kept_end.size();
    for (std::size_t r = d == 0 ? 0 : stride_end[d - 1]; r < stride_end[d]; ++r) {
      if (keep.contains(log[r].vertex)) kept.push_back(log[r]);
    }
    kept_end.push_back(kept.size());
    log.drop_before(stride_end[d]);
  };

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
    if (kept_end.size() + 2 < stride_end.size()) retire();  // stride d - 2
  }
  while (kept_end.size() < stride_end.size()) retire();
  log = RecordLog();  // frees the last chunk before the CSR is allocated

  // Stable counting sort of the kept records by vertex into the CSR: each
  // vertex's records keep log order, which is (dist, source) order.
  std::vector<std::size_t> offsets(nz + 1, 0);
  for (std::size_t v = 0; v < nz; ++v) {
    const bool row = keep.contains(static_cast<Vertex>(v));
    offsets[v + 1] = offsets[v] + (row ? state[v].count : 0);
  }
  assert(offsets[nz] == kept.size());  // a retired stride keeps every kept record
  std::copy(offsets.begin(), offsets.end() - 1, slot.begin());
  std::vector<SourceHit> hits(kept.size());
  std::size_t r = 0;
  for (std::size_t d = 0; d < kept_end.size(); ++d) {
    for (; r < kept_end[d]; ++r) {
      const Record& rec = kept[r];
      hits[slot[static_cast<std::size_t>(rec.vertex)]++] = {
          rec.source, static_cast<Dist>(d), rec.pred};
    }
  }
  return SourceDetection(std::move(offsets), std::move(hits), std::move(keep));
}

}  // namespace usne
