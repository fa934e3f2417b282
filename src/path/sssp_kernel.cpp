#include "path/sssp_kernel.hpp"

#include <algorithm>
#include <string>

#include "util/invariant.hpp"

namespace usne {
namespace {

/// Audit-only exactness postcondition: a finished SSSP vector is a
/// relaxation fixpoint (no arc can still improve a distance, and nothing
/// reachable was missed) with dist[source] == 0. O(arcs) — evaluated only
/// while inv::audits_enabled().
bool sssp_fixpoint_ok(const WeightedGraph::Csr& g, Vertex source,
                      const std::vector<Dist>& dist) noexcept {
  if (dist[static_cast<std::size_t>(source)] != 0) return false;
  for (Vertex v = 0; v < g.n; ++v) {
    const Dist dv = dist[static_cast<std::size_t>(v)];
    if (dv == kInfDist) continue;
    if (dv < 0) return false;
    for (const auto& arc : g.row(v)) {
      if (dist[static_cast<std::size_t>(arc.to)] > dv + arc.w) return false;
    }
  }
  return true;
}

}  // namespace

std::int64_t SsspScratch::resident_bytes() const noexcept {
  std::int64_t bytes = static_cast<std::int64_t>(
      ring_.capacity() * sizeof(std::vector<Vertex>) +
      frontier_.capacity() * sizeof(Vertex));
  for (const auto& slot : ring_) {
    bytes += static_cast<std::int64_t>(slot.capacity() * sizeof(Vertex));
  }
  return bytes;
}

void SsspScratch::reset_ring(std::size_t slots) {
  if (ring_.size() < slots) ring_.resize(slots);
  // Slots keep their capacity across queries — that is the point of the
  // scratch. The kernel's early exit (every vertex settled) can leave stale
  // entries behind, so every slot is cleared here.
  for (auto& slot : ring_) slot.clear();
  frontier_.clear();
}

Dist max_edge_weight(const WeightedGraph::Csr& g) noexcept {
  Dist max_w = 0;
  const std::int64_t arcs = g.num_arcs();
  for (std::int64_t i = 0; i < arcs; ++i) max_w = std::max(max_w, g.arcs[i].w);
  return max_w;
}

std::vector<Dist> dial_sssp_csr(const WeightedGraph::Csr& g, Vertex source,
                                Dist max_w, SsspScratch& scratch) {
  const std::size_t n = static_cast<std::size_t>(g.n);
  std::vector<Dist> dist(n, kInfDist);
  if (n == 0) return dist;
  // Circular ring: while processing distance d, live entries span
  // (d, d + max_w], so max_w + 1 slots never collide.
  const std::size_t slots = static_cast<std::size_t>(max_w) + 1;
  scratch.reset_ring(slots);
  auto* ring = scratch.ring_.data();
  auto& frontier = scratch.frontier_;

  dist[static_cast<std::size_t>(source)] = 0;
  ring[0].push_back(source);
  std::int64_t pending = 1;
  std::size_t settled = 0;

  for (Dist d = 0; pending > 0; ++d) {
    auto& slot = ring[static_cast<std::size_t>(d) % slots];
    if (slot.empty()) continue;
    frontier.swap(slot);  // weights are >= 1: nothing relaxes back into d
    pending -= static_cast<std::int64_t>(frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (i + 1 < frontier.size()) {
        const auto nxt = static_cast<std::size_t>(frontier[i + 1]);
        __builtin_prefetch(&dist[nxt]);
        __builtin_prefetch(&g.arcs[g.offsets[nxt]]);
      }
      const Vertex v = frontier[i];
      if (dist[static_cast<std::size_t>(v)] != d) continue;  // stale entry
      ++settled;
      for (const auto& arc : g.row(v)) {
        const Dist nd = d + arc.w;
        if (nd < dist[static_cast<std::size_t>(arc.to)]) {
          dist[static_cast<std::size_t>(arc.to)] = nd;
          ring[static_cast<std::size_t>(nd) % slots].push_back(arc.to);
          ++pending;
        }
      }
    }
    frontier.clear();
    if (settled == n) break;
  }
  // Postconditions. Always-on: the ring settles each vertex at most once,
  // so settling more than n of them means the ring slots collided (the
  // max_w + 1 sizing bound was violated). Audit: the result is a
  // relaxation fixpoint — exactness, checked against every arc.
  USNE_CHECK(inv::Category::kSssp,
             settled <= n && dist[static_cast<std::size_t>(source)] == 0,
             "dial ring settled " + std::to_string(settled) + " of " +
                 std::to_string(n) + " vertices (source dist " +
                 std::to_string(dist[static_cast<std::size_t>(source)]) + ")");
  USNE_AUDIT(inv::Category::kSssp, sssp_fixpoint_ok(g, source, dist),
             "dial result is not a shortest-path fixpoint from source " +
                 std::to_string(source));
  return dist;
}

}  // namespace usne
