// Spanner vs emulator trade-off on the same input (paper §4 vs §2).
//
// A spanner is a subgraph — its edges physically exist, so it can be
// deployed as an overlay/backbone (e.g. keeping only O(n^(1+1/kappa)) links
// of a dense data-center fabric); an emulator allows arbitrary weighted
// shortcut edges and gets strictly sparser. This example builds all three
// constructions through the unified registry — one BuildSpec each — and
// compares size and stretch.
//
//   ./spanner_pipeline [--n 4096] [--kappa 8] [--rho 0.4]

#include <exception>
#include <iostream>

#include "api/build.hpp"
#include "core/params.hpp"
#include "core/spanner.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace usne;
  Cli cli(argc, argv,
          {{"n", "number of vertices (default 4096)"},
           {"kappa", "sparsity parameter (default 8)"},
           {"rho", "time exponent (default 0.4)"},
           {"seed", "seed (default 21)"}});
  if (cli.help_requested() || !cli.errors().empty()) {
    for (const auto& e : cli.errors()) std::cerr << "error: " << e << '\n';
    std::cout << cli.usage("spanner_pipeline");
    return cli.help_requested() ? 0 : 1;
  }
  const Vertex n = cli.get_int_as<Vertex>("n", 4096);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 21));

  const Graph g = gen_connected_gnm(n, 6L * n, seed);
  std::cout << "input: n = " << n << ", m = " << g.num_edges() << "\n\n";

  BuildSpec spec;
  spec.params.kappa = cli.get_int_as<int>("kappa", 8);
  spec.params.rho = cli.get_double("rho", 0.4);
  spec.params.eps = 0.25;
  spec.exec.keep_audit_data = false;

  Table table({"construction", "|H|", "subgraph?", "beta budget",
               "max add (sampled)", "violations"});
  const auto add_row = [&](const char* algo, const char* label) {
    spec.algorithm = algo;
    const BuildOutput r = build(g, spec);
    const auto stretch =
        evaluate_stretch_sampled(g, r.h(), r.alpha, r.beta, 10, seed);
    table.row()
        .add(label)
        .add(r.h().num_edges())
        .add(is_subgraph(r.h(), g) ? "yes" : "no")
        .add(r.beta)
        .add(stretch.max_additive)
        .add(stretch.violations);
  };
  add_row("spanner", "spanner (this paper, §4)");
  add_row("spanner_em19", "spanner (EM19 baseline)");
  add_row("emulator_fast", "emulator (this paper, §3)");
  table.print(std::cout, "spanner vs emulator on the same input");

  std::cout << "size bound n^(1+1/kappa) = "
            << emulator_size_bound(n, spec.params.kappa)
            << "; the emulator is allowed weighted shortcuts and is the "
               "sparsest; the spanner stays inside G.\n";
  return 0;
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
