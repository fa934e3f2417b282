#include "core/ruling_central.hpp"

#include <algorithm>
#include <utility>

#include "util/math.hpp"

namespace usne {

CentralRulingSet ruling_set_central(const Graph& g, const std::vector<Vertex>& w,
                                    Dist q, std::int64_t base) {
  base = std::max<std::int64_t>(base, 2);
  const Vertex n = g.num_vertices();
  const int levels = digits_in_base(std::max<Vertex>(n, 2), base);

  CentralRulingSet result;
  result.separation = q + 2;
  result.covering = static_cast<Dist>(levels) * (q + 1);

  for (const Vertex v : w) check_vertex(g, v, "ruling_set_central");
  std::vector<Vertex> candidates = w;
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // cover[v] is v's distance to the nearest vertex selected so far at this
  // level when that is <= reach, else kInfDist; v is covered iff finite.
  // `touched` lists the finite entries so a level resets only those.
  const Dist reach = q + 1;
  std::vector<Dist> cover(static_cast<std::size_t>(n), kInfDist);
  std::vector<Vertex> touched;
  std::vector<Vertex> frontier;
  std::vector<Vertex> next;

  // Extends cover by a batch of newly selected (hence uncovered) vertices.
  // The flood continues only through vertices whose distance it lowers:
  // every other vertex already passed a distance at least as good to its
  // neighbours in an earlier flood.
  const auto flood = [&](const std::vector<Vertex>& batch) {
    frontier.clear();
    for (const Vertex s : batch) {
      cover[static_cast<std::size_t>(s)] = 0;
      touched.push_back(s);
      frontier.push_back(s);
    }
    for (Dist t = 1; t <= reach && !frontier.empty(); ++t) {
      next.clear();
      for (const Vertex v : frontier) {
        for (const Vertex u : g.neighbors(v)) {
          Dist& c = cover[static_cast<std::size_t>(u)];
          if (c <= t) continue;
          if (c == kInfDist) touched.push_back(u);
          c = t;
          next.push_back(u);
        }
      }
      frontier.swap(next);
    }
  };

  std::vector<std::pair<std::int64_t, Vertex>> by_digit;
  std::vector<Vertex> selected;
  std::vector<Vertex> batch;
  for (int level = levels - 1; level >= 0 && candidates.size() > 1; --level) {
    // Sweep the digit values from high to low. Candidates with the current
    // digit that no earlier selection covers join the set together; their
    // coverage applies from the next digit on.
    by_digit.clear();
    for (const Vertex v : candidates) {
      by_digit.emplace_back(-digit_at(v, base, level), v);
    }
    std::sort(by_digit.begin(), by_digit.end());
    selected.clear();
    batch.clear();
    for (std::size_t i = 0; i < by_digit.size();) {
      const std::int64_t digit = by_digit[i].first;
      if (!batch.empty()) {
        flood(batch);
        batch.clear();
      }
      for (; i < by_digit.size() && by_digit[i].first == digit; ++i) {
        const Vertex v = by_digit[i].second;
        if (cover[static_cast<std::size_t>(v)] == kInfDist) {
          selected.push_back(v);
          batch.push_back(v);
        }
      }
    }
    for (const Vertex v : touched) cover[static_cast<std::size_t>(v)] = kInfDist;
    touched.clear();
    std::sort(selected.begin(), selected.end());
    candidates.swap(selected);
  }

  result.members = std::move(candidates);
  return result;
}

}  // namespace usne
