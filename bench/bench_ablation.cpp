// Experiment E7 — ablations of the paper's design choices (§1.2, §2).
//
// (a) Buffer set N_i vs [EP01] ground partition: the paper's structural
//     innovation. Removing N_i and adding a ground forest (= EP01) must
//     cost ~n extra edges at large kappa.
// (b) Degree sequence: the paper's point is that the ORIGINAL [EP01]
//     sequence deg_i = n^(2^i/kappa) suffices for exactly n^(1+1/kappa)
//     under the joint charging analysis; the optimized [EN17a] sequence
//     (within the same Algorithm 1 skeleton) changes phase counts and edge
//     mix but not the headline.
// (c) Hub-splitting threshold (distributed Task 3): factor 2 is the
//     paper's; larger factors split later (fewer superclusters, bigger
//     stride cost). Rounds and supercluster counts respond as predicted.

#include <cmath>
#include <iostream>

#include "api/build.hpp"
#include "bench_common.hpp"
#include "core/emulator_centralized.hpp"
#include "core/params.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

void ablation_buffer_vs_ground() {
  Table table({"n", "kappa", "ours(N_i)", "EP01(ground)", "extra", "extra/n"});
  for (const Vertex n : {1024, 2048, 4096}) {
    const Graph g = gen_connected_gnm(n, 4L * n, 55);
    const int kappa = static_cast<int>(std::ceil(std::log2(n)));
    BuildSpec spec{.algorithm = "emulator_centralized",
                   .params = {.kappa = kappa, .eps = 0.25},
                   .exec = {.keep_audit_data = false}};
    const BuildOutput ours = build(g, spec);
    spec.algorithm = "emulator_ep01";
    const BuildOutput ep01 = build(g, spec);
    const std::int64_t extra = ep01.h().num_edges() - ours.h().num_edges();
    table.row()
        .add(static_cast<std::int64_t>(n))
        .add(kappa)
        .add(ours.h().num_edges())
        .add(ep01.h().num_edges())
        .add(extra)
        .add(static_cast<double>(extra) / static_cast<double>(n), 3);
  }
  table.print(std::cout,
              "E7a: buffer set N_i (ours) vs ground partition (EP01), "
              "kappa = log n");
}

void ablation_degree_sequence() {
  // Swap the degree sequence inside Algorithm 1: paper's original [EP01]
  // sequence vs an [EN17a]-flavoured slower sequence (gamma = 2).
  Table table({"n", "kappa", "EP01 seq |H|", "EN17 seq |H|", "bound",
               "EP01<=bound", "phases EP01", "phases EN17"});
  for (const Vertex n : {2048, 4096}) {
    const int kappa = 8;
    const Graph g = gen_connected_gnm(n, 4L * n, 66);
    const BuildOutput ep01_seq =
        build(g, {.algorithm = "emulator_centralized",
                  .params = {.kappa = kappa, .eps = 0.25},
                  .exec = {.keep_audit_data = false}});

    // EN17a-style sequence injected into the same skeleton: deg_i =
    // n^((2^i - 1)/(2 kappa) + 1/kappa), one extra phase to compensate for
    // the slower growth. Obtain a schedule with ell+1 phases by computing
    // params for kappa' = 2^(ell+2) - 1, then overwrite the thresholds. A
    // BuildSpec cannot carry an edited schedule, so this build calls
    // Algorithm 1 directly.
    const int ell = CentralizedParams::compute(n, kappa, 0.25).schedule.ell() + 1;
    auto en17_params = CentralizedParams::compute(
        n, static_cast<int>(ipow_sat(2, ell + 1) - 1), 0.25);
    en17_params.kappa = kappa;
    for (int i = 0; i <= ell; ++i) {
      const double expo = (std::pow(2.0, i) - 1.0) / (2.0 * kappa) + 1.0 / kappa;
      en17_params.schedule.deg[static_cast<std::size_t>(i)] =
          std::pow(static_cast<double>(n), expo);
    }
    const auto en17_seq =
        build_emulator_centralized(g, en17_params, {.keep_audit_data = false});

    table.row()
        .add(static_cast<std::int64_t>(n))
        .add(kappa)
        .add(ep01_seq.h().num_edges())
        .add(en17_seq.h.num_edges())
        .add(size_bound_edges(n, kappa))
        .add(ep01_seq.h().num_edges() <= size_bound_edges(n, kappa) ? "yes" : "NO")
        .add(static_cast<std::int64_t>(ep01_seq.result.phases.size()))
        .add(static_cast<std::int64_t>(en17_seq.phases.size()));
  }
  table.print(std::cout,
              "E7b: degree-sequence ablation inside Algorithm 1 "
              "(paper's point: the original EP01 sequence suffices)");
}

void ablation_hub_threshold() {
  Table table({"factor", "rounds", "superclusters(total)", "|H|",
               "endpoints_ok"});
  const Graph g = gen_family("caveman", 256, 88);
  for (const int factor : {1, 2, 4, 8}) {
    const BuildOutput r = build(
        g, {.algorithm = "emulator_congest",
            .params = {.kappa = 4, .eps = 0.4, .rho = 0.49},
            .exec = {.keep_audit_data = false, .hub_threshold_factor = factor}});
    std::int64_t superclusters = 0;
    for (const auto& p : r.result.phases) superclusters += p.clusters_out;
    table.row()
        .add(factor)
        .add(r.net.rounds)
        .add(superclusters)
        .add(r.h().num_edges())
        .add(r.endpoints_consistent() ? "yes" : "NO");
  }
  table.print(std::cout,
              "E7c: hub-splitting threshold factor (paper uses 2) — "
              "caveman n=256");
}

}  // namespace
}  // namespace usne

int main() {
  using namespace usne;
  bench::banner("E7  bench_ablation",
                "Design-choice ablations: buffer set vs ground partition; "
                "degree sequences; hub-split threshold.");
  Timer total;
  ablation_buffer_vs_ground();
  ablation_degree_sequence();
  ablation_hub_threshold();
  bench::note("Interpretation: (a) the ground partition costs ~n extra "
              "edges — exactly what the N_i mechanism removes; (b) the "
              "original EP01 sequence already meets the n^(1+1/kappa) bound "
              "under the joint analysis — the optimized sequence is not "
              "needed; (c) all hub thresholds give valid emulators, with "
              "round costs scaling with the factor.");
  std::cout << "\n[E7 done in " << format_double(total.seconds(), 1) << "s]\n";
  return 0;
}
