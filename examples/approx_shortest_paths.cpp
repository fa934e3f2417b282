// Application scenario (the paper's §1.1 motivation): answer many
// approximate distance queries on an ultra-sparse emulator instead of the
// original dense graph.
//
// A logistics-style scenario: a dense similarity/road network, a stream of
// point-to-point distance queries. Preprocess once into an emulator with
// ~n edges; per-query work then depends on n, not on |E|.
//
//   ./approx_shortest_paths [--n 16384] [--avg-deg 32] [--queries 25]

#include <cmath>
#include <iostream>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "path/bfs.hpp"
#include "serve/query_engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace usne;
  Cli cli(argc, argv,
          {{"n", "number of vertices (default 16384)"},
           {"avg-deg", "average degree (default 32)"},
           {"queries", "number of sampled s-t queries (default 25)"},
           {"seed", "seed (default 11)"}});
  if (cli.help_requested() || !cli.errors().empty()) {
    for (const auto& e : cli.errors()) std::cerr << "error: " << e << '\n';
    std::cout << cli.usage("approx_shortest_paths");
    return cli.help_requested() ? 0 : 1;
  }
  const Vertex n = static_cast<Vertex>(cli.get_int("n", 16384));
  const int avg_deg = static_cast<int>(cli.get_int("avg-deg", 32));
  const int queries = static_cast<int>(cli.get_int("queries", 25));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));

  const Graph g =
      gen_connected_gnm(n, static_cast<std::int64_t>(n) * avg_deg / 2, seed);
  std::cout << "network: n = " << n << ", m = " << g.num_edges() << "\n";

  // Preprocess: one ultra-sparse emulator through the unified API.
  const double log_n = std::log2(static_cast<double>(n));
  const int kappa = static_cast<int>(std::ceil(2 * log_n));
  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params = {kappa, 0.25, 0.3, false};
  spec.exec.keep_audit_data = false;
  Timer build_timer;
  const BuildOutput emulator = build(g, spec);
  std::cout << "preprocess: |H| = " << emulator.h().num_edges() << " edges in "
            << format_double(build_timer.seconds(), 2) << "s  (kappa = "
            << kappa << ")\n\n";

  // Query stream: exact BFS on G vs the serving engine on H. The cache is
  // off, so every query pays one Dial SSSP, as BFS on G pays one BFS.
  const serve::QueryEngine engine(emulator, {.cache_mb = 0});
  Rng rng(seed);
  Table table({"s", "t", "d_G", "d_H", "surplus", "G us", "H us"});
  double total_g_us = 0;
  double total_h_us = 0;
  Dist worst_surplus = 0;
  for (int q = 0; q < queries; ++q) {
    const Vertex s = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex t = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    Timer tg;
    const Dist dg = bfs_distances(g, s)[static_cast<std::size_t>(t)];
    const double g_us = tg.seconds() * 1e6;
    Timer th;
    const Dist dh = engine.query(s, t);
    const double h_us = th.seconds() * 1e6;
    total_g_us += g_us;
    total_h_us += h_us;
    worst_surplus = std::max(worst_surplus, dh - dg);
    if (q < 10) {
      table.row()
          .add(static_cast<std::int64_t>(s))
          .add(static_cast<std::int64_t>(t))
          .add(dg)
          .add(dh)
          .add(dh - dg)
          .add(g_us, 0)
          .add(h_us, 0);
    }
  }
  table.print(std::cout, "first queries (of " + std::to_string(queries) + ")");
  std::cout << "mean per-query: BFS on G "
            << format_double(total_g_us / queries, 0) << "us,  Dial on H "
            << format_double(total_h_us / queries, 0) << "us  (speedup "
            << format_double(total_g_us / total_h_us, 1) << "x)\n"
            << "worst additive surplus observed: " << worst_surplus
            << "  (guaranteed <= " << emulator.beta
            << " plus (alpha-1)*d_G)\n";
  return 0;
}
