// Experiment E5 — spanner size vs the [EM19] baseline (paper Corollary 4.4).
//
// Claim: the §4 construction builds (1+eps, beta)-spanners with
// O(n^(1+1/kappa)) edges, improving [EM19]'s O(beta * n^(1+1/kappa)).
// At their sparsest the new spanners have O(n log log n) edges.
//
// Both variants (and their CONGEST executions) dispatch through the unified
// registry (api/build.hpp) — the row loop names algorithms, usne::build()
// does the rest.
//
// Output: edge counts of both spanners across n and kappa; the gap must be
// >= 0 everywhere (exit 1 otherwise) and widen with n.

#include <cmath>
#include <iostream>

#include "api/build.hpp"
#include "bench_common.hpp"
#include "core/spanner.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

BuildSpec spanner_spec(const char* algo, int kappa, double rho, double eps) {
  BuildSpec spec;
  spec.algorithm = algo;
  spec.params.kappa = kappa;
  spec.params.rho = rho;
  spec.params.eps = eps;
  spec.exec.keep_audit_data = false;
  return spec;
}

}  // namespace
}  // namespace usne

int main() {
  using namespace usne;
  bench::banner("E5  bench_spanner",
                "Corollary 4.4: spanners with O(n^(1+1/kappa)) edges vs "
                "[EM19]'s O(beta * n^(1+1/kappa)).");
  Timer total;

  const double eps = 0.25;
  Table table({"n", "kappa", "rho", "|E(G)|", "ours", "EM19", "EM19-ours",
               "bound n^(1+1/k)", "n*loglog(n)"});

  bool gap_nonneg = true;
  for (const Vertex n : {1024, 2048, 4096, 8192, 16384}) {
    const int kappa = 8;
    const double rho = 0.4;
    const Graph g = gen_connected_gnm(n, 4L * n, 31 + n);
    const auto ours = build(g, spanner_spec("spanner", kappa, rho, eps));
    const auto em19 = build(g, spanner_spec("spanner_em19", kappa, rho, eps));
    const std::int64_t gap = em19.h().num_edges() - ours.h().num_edges();
    if (gap < 0) gap_nonneg = false;
    const double loglog = std::log2(std::log2(static_cast<double>(n)));
    table.row()
        .add(static_cast<std::int64_t>(n))
        .add(kappa)
        .add(rho, 2)
        .add(g.num_edges())
        .add(ours.h().num_edges())
        .add(em19.h().num_edges())
        .add(gap)
        .add(size_bound_edges(n, kappa))
        .add(static_cast<std::int64_t>(n * loglog));
  }
  table.print(std::cout, "E5: spanner sizes, ours vs EM19 (ER, kappa=8)");

  // Kappa sweep at fixed n, including the sparsest regime.
  Table ksweep({"kappa", "ours", "EM19", "bound", "ours<=EM19"});
  const Vertex n = 4096;
  const Graph g = gen_connected_gnm(n, 4L * n, 7);
  for (const int kappa : {4, 8, 16, 24}) {
    const double rho = std::max(0.3, 1.5 / kappa);
    const auto ours = build(g, spanner_spec("spanner", kappa, rho, eps));
    const auto em19 = build(g, spanner_spec("spanner_em19", kappa, rho, eps));
    if (ours.h().num_edges() > em19.h().num_edges()) gap_nonneg = false;
    ksweep.row()
        .add(kappa)
        .add(ours.h().num_edges())
        .add(em19.h().num_edges())
        .add(size_bound_edges(n, kappa))
        .add(ours.h().num_edges() <= em19.h().num_edges() ? "yes" : "NO");
  }
  ksweep.print(std::cout, "E5b: kappa sweep at n=4096");

  // CONGEST execution: Corollary 4.4 promises the same O(beta * n^rho)
  // running time as the emulator construction; meter both variants.
  Table congest_t({"family", "n", "ours rounds", "EM19 rounds", "ours |H|",
                   "EM19 |H|", "subgraph"});
  for (const char* family : {"er", "caveman", "torus"}) {
    const Graph g = gen_family(family, 256, 77);
    const auto ours =
        build(g, spanner_spec("spanner_congest", 4, 0.45, 0.4));
    const auto em19 =
        build(g, spanner_spec("spanner_congest_em19", 4, 0.45, 0.4));
    congest_t.row()
        .add(family)
        .add(static_cast<std::int64_t>(g.num_vertices()))
        .add(ours.net.rounds)
        .add(em19.net.rounds)
        .add(ours.h().num_edges())
        .add(em19.h().num_edges())
        .add(is_subgraph(ours.h(), g) && is_subgraph(em19.h(), g) ? "yes"
                                                                  : "NO");
  }
  congest_t.print(std::cout, "E5c: CONGEST execution (rounds metered, caps "
                             "enforced), n=256");

  bench::note(gap_nonneg
                  ? "Shape check PASSED: ours <= EM19 in every configuration "
                    "(the Corollary 4.4 improvement)."
                  : "Shape check FAILED: EM19 beat ours somewhere.");
  bench::note("Note: at laptop scale both spanners are near-tree-sized on "
              "sparse inputs; the separation is the EM19 beta-factor, which "
              "grows with n (see the EM19-ours column trend).");
  std::cout << "\n[E5 done in " << format_double(total.seconds(), 1) << "s]\n";
  return gap_nonneg ? 0 : 1;
}
