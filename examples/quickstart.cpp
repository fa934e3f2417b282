// Quickstart: build a near-additive emulator in ~20 lines through the
// unified construction API (api/build.hpp).
//
//   ./quickstart [--n 4096] [--kappa 8] [--eps 0.25] [--seed 1]
//
// Generates a random graph, runs the paper's Algorithm 1
// ("emulator_centralized" in the registry), and prints the size and stretch
// guarantees next to measured values.

#include <exception>
#include <iostream>

#include "api/build.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace usne;
  Cli cli(argc, argv,
          {{"n", "number of vertices (default 4096)"},
           {"kappa", "sparsity parameter kappa >= 1 (default 8)"},
           {"eps", "multiplicative slack in (0,1) (default 0.25)"},
           {"seed", "generator seed (default 1)"}});
  if (cli.help_requested() || !cli.errors().empty()) {
    for (const auto& e : cli.errors()) std::cerr << "error: " << e << '\n';
    std::cout << cli.usage("quickstart");
    return cli.help_requested() ? 0 : 1;
  }

  const Vertex n = cli.get_int_as<Vertex>("n", 4096);
  const int kappa = cli.get_int_as<int>("kappa", 8);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  // 1. An input graph.
  const Graph g = gen_connected_gnm(n, 4L * n, seed);
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges() << "\n";

  // 2. One BuildSpec: the algorithm name plus the unified parameters.
  BuildSpec spec;
  spec.algorithm = "emulator_centralized";
  spec.params.kappa = kappa;
  spec.params.eps = cli.get_double("eps", 0.25);

  // 3. Build (Algorithm 1 of the paper).
  const BuildOutput result = build(g, spec);
  std::cout << "params: " << result.params_description << "\n";
  std::cout << "emulator: " << result.result.summary() << "\n";
  std::cout << "size bound n^(1+1/kappa) = " << emulator_size_bound(n, kappa)
            << "  ->  |H| = " << result.h().num_edges() << "  (ratio "
            << static_cast<double>(result.h().num_edges()) /
                   static_cast<double>(emulator_size_bound(n, kappa))
            << ")\n";

  // 4. Check the computed (alpha, beta) guarantee on a sample of pairs.
  const auto stretch = evaluate_stretch_sampled(g, result.h(), result.alpha,
                                                result.beta, 16, seed);
  std::cout << "stretch over " << stretch.pairs
            << " pairs: max multiplicative " << stretch.max_mult
            << ", max additive " << stretch.max_additive << " (budget alpha="
            << result.alpha << ", beta=" << result.beta << ")\n"
            << "violations: " << stretch.violations
            << "  underruns: " << stretch.underruns << "\n";
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
