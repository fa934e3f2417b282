// Experiment E8 — the application the paper's introduction motivates:
// approximate shortest paths / distance oracles.
//
// An ultra-sparse emulator H has ~n edges, so single-source distance
// computations on H cost ~O(n + max distance) regardless of |E|. We
// compare per-query time of BFS on G vs the serving kernel (Dial) on H, and
// report the observed stretch of the answers. Denser inputs benefit more.

#include <iostream>

#include "api/build.hpp"
#include "bench_common.hpp"
#include "eval/stretch.hpp"
#include "path/bfs.hpp"
#include "path/sssp_kernel.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

int main() {
  using namespace usne;
  bench::banner("E8  bench_oracle",
                "Application (paper §1.1): approximate shortest paths on the "
                "emulator instead of the graph.");
  Timer total;

  Table table({"n", "avg_deg", "|E(G)|", "|H|", "BFS(G) ms/query",
               "Dial(H) ms/query", "speedup", "mean mult", "max add"});
  for (const auto& [n, avg_deg] :
       std::vector<std::pair<Vertex, int>>{{8192, 16}, {16384, 16},
                                           {16384, 32}, {16384, 64},
                                           {32768, 16}, {32768, 48}}) {
    const Graph g =
        gen_connected_gnm(n, static_cast<std::int64_t>(n) * avg_deg / 2, 7);
    const double log_n = std::log2(static_cast<double>(n));
    const int kappa = static_cast<int>(std::ceil(log_n * 2));
    const BuildOutput r =
        build(g, {.algorithm = "emulator_fast",
                  .params = {.kappa = kappa, .eps = 0.25, .rho = 0.3},
                  .exec = {.keep_audit_data = false}});

    // Deterministic query sources.
    Rng rng(99);
    std::vector<Vertex> sources;
    for (int i = 0; i < 20; ++i) {
      sources.push_back(static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n))));
    }

    Timer bfs_timer;
    std::int64_t sink = 0;
    for (const Vertex s : sources) {
      const auto d = bfs_distances(g, s);
      sink += d[static_cast<std::size_t>((s + 1) % n)];
    }
    const double bfs_ms = bfs_timer.millis() / static_cast<double>(sources.size());

    const auto csr = r.h().csr();
    const Dist max_w = max_edge_weight(csr);
    SsspScratch scratch;
    Timer h_timer;
    for (const Vertex s : sources) {
      // Dial's bucket queue: emulator weights are small integers, so this
      // runs in O(n + |H| + max distance) — no heap log-factor.
      const auto d = dial_sssp_csr(csr, s, max_w, scratch);
      sink += d[static_cast<std::size_t>((s + 1) % n)] == kInfDist
                  ? 0
                  : d[static_cast<std::size_t>((s + 1) % n)];
    }
    const double h_ms = h_timer.millis() / static_cast<double>(sources.size());

    const auto stretch = evaluate_stretch_sampled(g, r.h(), r.alpha, r.beta, 8, 3);

    table.row()
        .add(static_cast<std::int64_t>(n))
        .add(avg_deg)
        .add(g.num_edges())
        .add(r.h().num_edges())
        .add(bfs_ms, 3)
        .add(h_ms, 3)
        .add(bfs_ms / h_ms, 2)
        .add(stretch.mean_mult, 3)
        .add(stretch.max_additive);
    (void)sink;
  }
  table.print(std::cout, "E8: query time on G vs on the ultra-sparse H");

  bench::note("Interpretation: H has ~n edges regardless of |E(G)|, so "
              "queries on H get cheaper relative to BFS as the input gets "
              "denser, at bounded (1+eps, beta) stretch. This is the "
              "almost-shortest-paths application of the intro.");
  std::cout << "\n[E8 done in " << format_double(total.seconds(), 1) << "s]\n";
  return 0;
}
