// The headline result (paper Corollary 2.15): an emulator with n + o(n)
// edges. Sets kappa = omega(log n) and shows |H| hugging n from below while
// the input graph has many times more edges. Built through the unified API
// ("emulator_fast" — the §3.3 scalable builder).
//
//   ./ultra_sparse_demo [--n 32768] [--avg-deg 12] [--rho 0.3] [--seed 7]

#include <cmath>
#include <exception>
#include <iostream>

#include "api/build.hpp"
#include "core/params.hpp"
#include "eval/metrics.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace usne;
  Cli cli(argc, argv,
          {{"n", "number of vertices (default 32768)"},
           {"avg-deg", "average degree of the input graph (default 12)"},
           {"rho", "running-time exponent in (1/kappa, 1/2) (default 0.3)"},
           {"seed", "generator seed (default 7)"}});
  if (cli.help_requested() || !cli.errors().empty()) {
    for (const auto& e : cli.errors()) std::cerr << "error: " << e << '\n';
    std::cout << cli.usage("ultra_sparse_demo");
    return cli.help_requested() ? 0 : 1;
  }
  const Vertex n = cli.get_int_as<Vertex>("n", 32768);
  const int avg_deg = cli.get_int_as<int>("avg-deg", 12);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));

  const Graph g =
      gen_connected_gnm(n, static_cast<std::int64_t>(n) * avg_deg / 2, seed);

  // kappa = log n * log log n — omega(log n), the ultra-sparse regime.
  const double log_n = std::log2(static_cast<double>(n));
  const int kappa = static_cast<int>(std::ceil(log_n * std::log2(log_n)));

  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params.kappa = kappa;
  spec.params.rho = cli.get_double("rho", 0.3);
  spec.params.eps = 0.25;

  std::cout << "input:   n = " << n << ", m = " << g.num_edges() << "\n"
            << "kappa  = " << kappa << "  (log2 n = " << log_n << ")\n"
            << "bound  = n^(1+1/kappa) = " << emulator_size_bound(n, kappa)
            << "  = n + " << (emulator_size_bound(n, kappa) - n) << "\n";

  const BuildOutput result = build(g, spec);
  std::cout << "|H|    = " << result.h().num_edges() << "  (excess over n: "
            << format_double(ultra_sparse_excess(result.h(), n) * 100, 3)
            << "%)\n";

  Table phases({"phase", "|P_i|", "popular", "|U_i|", "interconnect",
                "supercluster"});
  for (const auto& p : result.result.phases) {
    phases.row()
        .add(p.phase)
        .add(p.clusters_in)
        .add(p.popular)
        .add(p.unclustered)
        .add(p.interconnect_edges)
        .add(p.supercluster_edges);
  }
  phases.print(std::cout, "phase structure");

  const auto stretch = evaluate_stretch_sampled(g, result.h(), result.alpha,
                                                result.beta, 8, seed);
  std::cout << "stretch: max additive " << stretch.max_additive
            << " over " << stretch.pairs << " sampled pairs (budget beta = "
            << result.beta << "), violations " << stretch.violations << "\n";
  std::cout << "\nThe emulator preserves all pairwise distances up to "
            << "(1+eps, beta) using barely n edges — that is Corollary 2.15.\n";
  return stretch.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
