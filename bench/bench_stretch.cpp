// Experiment E3 — stretch vs the theoretical budget (paper Lemma 2.10,
// Corollaries 2.13/2.14).
//
// Claim: d_H(u,v) <= alpha_ell * d_G(u,v) + beta_ell for every pair, with
// the computed recurrence values (alpha_ell, beta_ell). We report the
// *measured* worst multiplicative and additive errors next to the budget:
// measured <= budget always, and typically far below (the bounds are
// worst-case). Exits 1 if any E3 or E3b row has a violation or underrun.

#include <iostream>

#include "api/build.hpp"
#include "bench_common.hpp"
#include "eval/stretch.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

/// Adds one exact-APSP row; false if it has a violation or underrun.
bool sweep_exact(const std::string& family, Vertex n, int kappa, double eps,
                 Table& table) {
  const Graph g = gen_family(family, n, 77);
  const BuildOutput r = build(g, {.algorithm = "emulator_centralized",
                                  .params = {.kappa = kappa, .eps = eps},
                                  .exec = {.keep_audit_data = false}});
  const auto report = evaluate_stretch_exact(g, r.h(), r.alpha, r.beta);

  table.row()
      .add(family)
      .add(static_cast<std::int64_t>(g.num_vertices()))
      .add(kappa)
      .add(eps, 2)
      .add(r.alpha, 3)
      .add(report.max_mult, 3)
      .add(r.beta)
      .add(report.max_additive)
      .add(report.violations)
      .add(report.underruns);
  return report.ok();
}

}  // namespace
}  // namespace usne

int main() {
  using namespace usne;
  bench::banner("E3  bench_stretch",
                "Lemma 2.10 / Cor. 2.14: d_H <= alpha*d_G + beta with the "
                "computed (alpha, beta); violations must be 0.");
  Timer total;

  Table table({"family", "n", "kappa", "eps", "alpha(budget)", "mult(max)",
               "beta(budget)", "add(max)", "violations", "underruns"});
  bool ok = true;
  for (const char* family : {"er", "grid", "torus", "ba", "ws", "caveman"}) {
    ok = sweep_exact(family, 400, 4, 0.25, table) && ok;
  }
  for (const double eps : {0.1, 0.25, 0.5}) {
    ok = sweep_exact("er", 400, 4, eps, table) && ok;
  }
  for (const int kappa : {2, 8, 16}) {
    ok = sweep_exact("torus", 400, kappa, 0.25, table) && ok;
  }
  table.print(std::cout, "E3: measured stretch vs budget (exact APSP)");

  // Larger graphs with sampled evaluation.
  Table sampled({"family", "n", "kappa", "mult(max)", "add(max)",
                 "beta(budget)", "violations", "underruns"});
  for (const Vertex n : {2048, 4096}) {
    const Graph g = gen_family("er", n, 5);
    const BuildOutput r = build(g, {.algorithm = "emulator_centralized",
                                    .params = {.kappa = 8, .eps = 0.25},
                                    .exec = {.keep_audit_data = false}});
    const auto report = evaluate_stretch_sampled(g, r.h(), r.alpha, r.beta, 24, 9);
    sampled.row()
        .add("er")
        .add(static_cast<std::int64_t>(n))
        .add(8)
        .add(report.max_mult, 3)
        .add(report.max_additive)
        .add(r.beta)
        .add(report.violations)
        .add(report.underruns);
    ok = report.ok() && ok;
  }
  sampled.print(std::cout, "E3b: sampled stretch on larger graphs");

  bench::note("Interpretation: zero violations/underruns everywhere "
              "reproduces the (1+eps, beta) guarantee; measured errors sit "
              "well below the worst-case budget, as expected.");
  bench::note(ok ? "Claim check PASSED: no violation or underrun in any row."
                 : "Claim check FAILED: a row has a violation or underrun.");
  std::cout << "\n[E3 done in " << format_double(total.seconds(), 1) << "s]\n";
  return ok ? 0 : 1;
}
