#include "serve/forest_core.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "path/sssp_kernel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace usne::serve {
namespace {

/// The core table's fill may cost at most this many SSSPs over all of H.
constexpr double kFillBudget = 16;

}  // namespace

std::string KernelInfo::json() const {
  std::ostringstream out;
  if (!structural) {
    out << "{\"core\": " << core << ", \"name\": \"dial\"}";
    return out.str();
  }
  out << "{\"build_s\": " << format_double(build_s, 6) << ", \"core\": " << core
      << ", \"max_depth\": " << max_depth
      << ", \"name\": \"structural\", \"table_bytes\": " << table_bytes << "}";
  return out.str();
}

std::unique_ptr<const ForestCore> ForestCore::build(const WeightedGraph::Csr& h,
                                                    KernelInfo& info) {
  const Timer timer;
  info = {};
  const auto n = static_cast<std::size_t>(h.n);

  // Peel in FIFO order. deg[v] counts v's unpeeled neighbours, and v is
  // queued once, when that count first reaches <= 1. When it is popped, its
  // one unpeeled neighbour (if any) is its parent; with none it is the root
  // of a component that has no core.
  std::vector<std::int64_t> deg(n);
  std::vector<Vertex> order;  // peel order: children before their parents
  order.reserve(n);
  for (Vertex v = 0; v < h.n; ++v) {
    deg[static_cast<std::size_t>(v)] = h.degree(v);
    if (h.degree(v) <= 1) order.push_back(v);
  }
  std::vector<char> peeled(n, 0);
  std::vector<Vertex> parent(n, -1);
  std::vector<Dist> up(n, 0);  // weight of the edge to the parent
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto u = static_cast<std::size_t>(order[i]);
    peeled[u] = 1;
    for (const auto& arc : h.row(order[i])) {
      const auto p = static_cast<std::size_t>(arc.to);
      if (peeled[p]) continue;
      parent[u] = arc.to;
      up[u] = arc.w;
      if (--deg[p] == 1) order.push_back(arc.to);
      break;
    }
  }

  const std::size_t core = n - order.size();
  std::int64_t core_arcs = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!peeled[v]) core_arcs += deg[v];
  }
  info.core = static_cast<Vertex>(core);
  const double table_bytes =
      static_cast<double>(core) * static_cast<double>(core) * sizeof(Dist);
  const double csr_bytes =
      static_cast<double>(n + 1) * sizeof(std::int64_t) +
      static_cast<double>(h.num_arcs()) * sizeof(WeightedGraph::Arc);
  const double fill_work =
      static_cast<double>(core) * static_cast<double>(core + core_arcs);
  const double sssp_work = static_cast<double>(n + h.num_arcs());
  if (table_bytes > csr_bytes || fill_work > kFillBudget * sssp_work) {
    info.build_s = timer.seconds();
    return nullptr;
  }

  auto out = std::unique_ptr<ForestCore>(new ForestCore());
  out->core_ = core;
  std::vector<Node>& nodes = out->nodes_;
  nodes.resize(n);
  Vertex row = 0;
  for (Vertex v = 0; v < h.n; ++v) {
    if (!peeled[static_cast<std::size_t>(v)]) {
      nodes[static_cast<std::size_t>(v)] = {0, v, row++, v, -1, 0, 0};
    }
  }

  // Heavy child = the largest subtree (the first on ties). Peel order
  // finishes every subtree before its root.
  std::vector<std::int32_t> size(n, 1);
  std::vector<Vertex> heavy(n, -1);
  for (const Vertex u : order) {
    const Vertex p = parent[static_cast<std::size_t>(u)];
    if (p < 0) continue;
    const auto pi = static_cast<std::size_t>(p);
    size[pi] += size[static_cast<std::size_t>(u)];
    if (heavy[pi] < 0 || size[static_cast<std::size_t>(u)] >
                             size[static_cast<std::size_t>(heavy[pi])]) {
      heavy[pi] = u;
    }
  }
  // Parents before children: a heavy child continues its parent's chain.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Vertex u = *it;
    const Vertex p = parent[static_cast<std::size_t>(u)];
    Node& x = nodes[static_cast<std::size_t>(u)];
    if (p < 0) {
      x = {0, u, -1, u, -1, 0, 0};
      continue;
    }
    const Node& px = nodes[static_cast<std::size_t>(p)];
    x.offset = px.offset + up[static_cast<std::size_t>(u)];
    x.anchor = px.anchor;
    x.core = px.core;
    x.depth = px.depth + 1;
    if (heavy[static_cast<std::size_t>(p)] == u) {
      x.head = px.head;
      x.jump = px.jump;
      x.head_depth = px.head_depth;
    } else {
      x.head = u;
      x.jump = p;
      x.head_depth = x.depth;
    }
    info.max_depth = std::max<std::int64_t>(info.max_depth, x.depth);
  }

  // d_core by Dial from every core vertex over the core subgraph alone.
  if (core > 0) {
    std::vector<WeightedEdge> edges;
    for (Vertex v = 0; v < h.n; ++v) {
      if (peeled[static_cast<std::size_t>(v)]) continue;
      for (const auto& arc : h.row(v)) {
        if (arc.to > v && !peeled[static_cast<std::size_t>(arc.to)]) {
          edges.push_back({nodes[static_cast<std::size_t>(v)].core,
                           nodes[static_cast<std::size_t>(arc.to)].core, arc.w});
        }
      }
    }
    const WeightedGraph sub =
        WeightedGraph::from_edges(static_cast<Vertex>(core), std::move(edges));
    const WeightedGraph::Csr csr = sub.csr();
    const Dist max_w = max_edge_weight(csr);
    SsspScratch scratch;
    out->table_.resize(core * core);
    for (Vertex s = 0; s < static_cast<Vertex>(core); ++s) {
      const std::vector<Dist> d = dial_sssp_csr(csr, s, max_w, scratch);
      std::copy(d.begin(), d.end(),
                out->table_.begin() + static_cast<std::ptrdiff_t>(
                                          static_cast<std::size_t>(s) * core));
    }
  }

  info.structural = true;
  info.table_bytes = static_cast<std::int64_t>(core * core * sizeof(Dist));
  info.build_s = timer.seconds();
  return out;
}

Dist ForestCore::distance(Vertex u, Vertex v) const noexcept {
  const Node* a = &nodes_[static_cast<std::size_t>(u)];
  const Node* b = &nodes_[static_cast<std::size_t>(v)];
  // Dial reports any distance >= kInfDist as unreachable; so does this.
  if (a->anchor != b->anchor) {
    if (a->core < 0 || b->core < 0) return kInfDist;
    const Dist d = table_[static_cast<std::size_t>(a->core) * core_ +
                          static_cast<std::size_t>(b->core)];
    return d >= kInfDist ? kInfDist
                         : std::min(a->offset + b->offset + d, kInfDist);
  }
  const Dist sum = a->offset + b->offset;
  while (a->head != b->head) {
    if (a->head_depth < b->head_depth) std::swap(a, b);
    a = &nodes_[static_cast<std::size_t>(a->jump)];
  }
  const Node* lca = a->depth < b->depth ? a : b;
  return std::min(sum - 2 * lca->offset, kInfDist);
}

}  // namespace usne::serve
