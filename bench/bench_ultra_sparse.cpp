// Experiment E2 — the ultra-sparse regime (paper Corollary 2.15 / 3.12).
//
// Claim: with kappa = omega(log n), the emulator has n + o(n) edges. We set
// kappa = ceil(log2(n) * log2(log2(n))) and track the excess (|H| - n)/n as
// n grows: the series must decrease toward 0.
//
// Uses the fast §3.3 builder, which scales to the largest n here.

#include <cmath>
#include <iostream>

#include "api/build.hpp"
#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "util/math.hpp"

int main() {
  using namespace usne;
  bench::banner("E2  bench_ultra_sparse",
                "Corollary 2.15/3.12: kappa = omega(log n) gives an emulator "
                "with n + o(n) edges.");
  Timer total;

  Table table({"n", "kappa", "|E(G)|", "|H|", "bound", "(|H|-n)/n",
               "(bound-n)/n", "build_s"});
  double prev_excess = 1e9;
  bool decreasing = true;
  for (const Vertex n : {1024, 2048, 4096, 8192, 16384, 32768, 65536}) {
    const double log_n = std::log2(static_cast<double>(n));
    const int kappa = static_cast<int>(std::ceil(log_n * std::log2(log_n)));
    const Graph g = gen_connected_gnm(n, 6L * n, 1234 + n);

    Timer timer;
    const BuildOutput r =
        build(g, {.algorithm = "emulator_fast",
                  .params = {.kappa = kappa, .eps = 0.25, .rho = 0.3},
                  .exec = {.keep_audit_data = false}});
    const double secs = timer.seconds();

    const double excess = ultra_sparse_excess(r.h(), n);
    const double bound_excess =
        static_cast<double>(size_bound_edges(n, kappa) - n) /
        static_cast<double>(n);
    if (excess > prev_excess + 0.01) decreasing = false;
    prev_excess = excess;

    table.row()
        .add(static_cast<std::int64_t>(n))
        .add(kappa)
        .add(g.num_edges())
        .add(r.h().num_edges())
        .add(size_bound_edges(n, kappa))
        .add(excess, 4)
        .add(bound_excess, 4)
        .add(secs, 2);
  }
  table.print(std::cout, "E2: ultra-sparse excess vs n (ER, avg degree 12)");

  bench::note(decreasing
                  ? "Shape check PASSED: the excess decreases with n (o(n) "
                    "behaviour), matching Corollary 2.15."
                  : "Shape check FAILED: excess did not decrease with n.");
  std::cout << "\n[E2 done in " << format_double(total.seconds(), 1) << "s]\n";
  return 0;
}
