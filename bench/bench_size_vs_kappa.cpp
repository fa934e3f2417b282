// Experiment E1 — emulator size vs kappa (paper Corollary 2.14).
//
// Claim: Algorithm 1 produces a (1+eps, beta)-emulator with AT MOST
// n^(1+1/kappa) edges — leading constant exactly 1 — where all prior
// constructions pay a constant c >= 2 at their sparsest ([EP01] via its
// ground partition; [TZ06]/[EN17a] via randomized per-phase accounting).
//
// All four constructions are dispatched through the unified registry
// (api/build.hpp): one BuildSpec per column, no per-algorithm glue.
//
// Output: one table per graph family; columns are edge counts of each
// construction and the ratio |H| / n^(1+1/kappa). Exits 1 unless ours is
// <= 1 in every row.

#include <cmath>
#include <iostream>

#include "api/build.hpp"
#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

/// Builds `algo` on g via the registry. `seed_offset` keeps the randomized
/// baselines on the exact seeds the experiment has always used.
BuildOutput build_one(const Graph& g, const char* algo, int kappa, double eps,
                      std::uint64_t seed, std::uint64_t seed_offset) {
  BuildSpec spec;
  spec.algorithm = algo;
  spec.params.kappa = kappa;
  spec.params.eps = eps;
  spec.exec.keep_audit_data = false;
  spec.exec.seed = seed + seed_offset;
  return build(g, spec);
}

/// Prints one family's table; false if ours exceeds the bound in any row.
bool run_family(const std::string& family, Vertex n, std::uint64_t seed) {
  const Graph g = gen_family(family, n, seed);
  const Vertex real_n = g.num_vertices();
  const double eps = 0.25;

  Table table({"kappa", "bound n^(1+1/k)", "ours", "ours/bound", "EP01",
               "TZ06", "EN17a", "|E(G)|"});
  const int log_n = static_cast<int>(std::ceil(std::log2(real_n)));
  bool within = true;
  for (const int kappa : {2, 3, 4, 8, 16, log_n}) {
    const BuildOutput ours =
        build_one(g, "emulator_centralized", kappa, eps, seed, 0);
    within = within && size_bound_ratio(ours.h(), real_n, kappa) <= 1.0;

    table.row()
        .add(kappa)
        .add(size_bound_edges(real_n, kappa))
        .add(ours.h().num_edges())
        .add(size_bound_ratio(ours.h(), real_n, kappa), 4)
        .add(build_one(g, "emulator_ep01", kappa, eps, seed, 0).h().num_edges())
        .add(build_one(g, "emulator_tz06", kappa, eps, seed, 1).h().num_edges())
        .add(build_one(g, "emulator_en17", kappa, eps, seed, 2).h().num_edges())
        .add(g.num_edges());
  }
  table.print(std::cout, "E1: " + family + " (n=" + std::to_string(real_n) +
                             ", eps=" + format_double(eps, 2) + ")");
  return within;
}

}  // namespace
}  // namespace usne

int main() {
  using namespace usne;
  bench::banner("E1  bench_size_vs_kappa",
                "Corollary 2.14: |H| <= n^(1+1/kappa), leading constant 1; "
                "baselines pay more.");
  Timer timer;

  bool within = run_family("er", 2048, 11);
  within = run_family("er", 4096, 12) && within;
  within = run_family("ba", 2048, 13) && within;
  within = run_family("torus", 2048, 14) && within;
  within = run_family("caveman", 2048, 15) && within;

  bench::note("Interpretation: 'ours/bound' <= 1.0 in every row is the "
              "paper's headline (leading constant exactly 1, deterministic).");
  bench::note(within ? "Shape check PASSED: ours/bound <= 1.0 in every row."
                     : "Shape check FAILED: ours exceeded n^(1+1/kappa).");
  bench::note("EP01 pays its ground partition in every row; TZ06 pays the "
              "randomized closer-than-sampled interconnection. EN17a is "
              "randomized linear-size: it can land near (occasionally just "
              "below) ours on some inputs but carries no deterministic "
              "per-instance bound, which is precisely the gap the paper "
              "closes.");
  std::cout << "\n[E1 done in " << format_double(timer.seconds(), 1) << "s]\n";
  return within ? 0 : 1;
}
