// Experiment E9 — emulators as hopsets (paper §1.1 / related work
// [EN16a, HP17]).
//
// Claim (qualitative, from the paper's introduction): near-additive
// emulators are intimately connected to hopsets, the object powering
// parallel/distributed approximate shortest paths. Measured: the number of
// Bellman–Ford rounds (hops) needed to bring every sampled pair within the
// (1+eps, beta) budget drops dramatically once the emulator edges are
// available as shortcuts — while the emulator adds only ~n edges.

#include <cmath>
#include <iostream>

#include "api/build.hpp"
#include "bench_common.hpp"
#include "hopset/hopset.hpp"
#include "util/math.hpp"

int main() {
  using namespace usne;
  bench::banner("E9  bench_hopset",
                "Emulators as hopsets: hop-limited Bellman-Ford reaches the "
                "(1+eps, beta) budget in far fewer rounds with H.");
  Timer total;

  Table table({"family", "n", "diam-ish", "|H|", "hopbound w/o H",
               "hopbound with H", "reduction"});
  struct Row {
    const char* family;
    Vertex n;
  };
  for (const Row& row : {Row{"torus", 1024}, Row{"grid", 1024},
                         Row{"cycle", 512}, Row{"ws", 1024}}) {
    const Graph g = gen_family(row.family, row.n, 5);
    // kappa ~ log n: the ultra-sparse regime, where the phases build a
    // hierarchy of progressively longer weighted shortcuts — the hopset
    // structure. (At small kappa on bounded-degree graphs nothing is ever
    // popular and H = G: no shortcuts at all.)
    const int kappa = static_cast<int>(std::ceil(std::log2(g.num_vertices())));
    const BuildOutput r =
        build(g, {.algorithm = "emulator_centralized",
                  .params = {.kappa = kappa, .eps = 0.25},
                  .exec = {.keep_audit_data = false}});

    const std::vector<Vertex> sources = {0, g.num_vertices() / 3,
                                         2 * g.num_vertices() / 5};
    const double eps = r.alpha - 1.0;
    const Dist beta = r.beta;
    const int max_hops = 2 * g.num_vertices();

    const WeightedGraph empty(g.num_vertices());
    const auto without = measure_hopbound(g, empty, sources, eps, beta, max_hops);
    const auto with = measure_hopbound(g, r.h(), sources, eps, beta, max_hops);

    table.row()
        .add(row.family)
        .add(static_cast<std::int64_t>(g.num_vertices()))
        .add(static_cast<std::int64_t>(without.hopbound))  // ~ the hop radius
        .add(r.h().num_edges())
        .add(without.hopbound)
        .add(with.hopbound)
        .add(with.hopbound > 0
                 ? static_cast<double>(without.hopbound) /
                       static_cast<double>(with.hopbound)
                 : 0.0,
             1);
  }
  table.print(std::cout, "E9: hopbound to reach the (1+eps, beta) budget");

  bench::note("Interpretation: without H the hopbound equals the hop "
              "radius of the source set (distances need that many BF "
              "rounds); with the emulator's weighted shortcuts the same "
              "accuracy needs a small fraction of the rounds. This is the "
              "emulator/hopset connection the paper's introduction and "
              "survey [EN20] discuss.");
  std::cout << "\n[E9 done in " << format_double(total.seconds(), 1) << "s]\n";
  return 0;
}
