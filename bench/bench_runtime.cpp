// Experiment E6 — construction time scaling (paper Theorem 3.13, §2.2.3).
//
// Claim: the naive Algorithm 1 runs in O(sum_i |P_i| * |E|) time, while the
// §3.3 fast centralized simulation runs in O~(|E| * n^rho) — asymptotically
// faster for small rho. google-benchmark timings over growing n exhibit the
// growth-rate difference.

#include <benchmark/benchmark.h>

#include <cmath>

#include "api/build.hpp"
#include "graph/generators.hpp"

namespace usne {
namespace {

BuildSpec spec_for(const char* algorithm, int kappa, double rho = 0.45) {
  return {.algorithm = algorithm,
          .params = {.kappa = kappa, .eps = 0.25, .rho = rho},
          .exec = {.keep_audit_data = false}};
}

// Workload note: kappa = 4 with average degree ~ deg_0 = n^(1/4) produces
// mixed popularity, so many clusters survive into phase 1 and the naive
// Algorithm 1 pays its Sigma |P_i| * |E| exploration cost (paper eq. 14).
// The fast §3.3 builder replaces per-center explorations by capped
// detections and scales as O~(|E| * n^rho): its curve grows visibly slower.

void BM_Algorithm1(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = gen_connected_gnm(n, 6L * n, 9);
  const BuildSpec spec = spec_for("emulator_centralized", 4);
  for (auto _ : state) {
    auto r = build(g, spec);
    benchmark::DoNotOptimize(r.h().num_edges());
  }
  state.counters["edges"] = static_cast<double>(build(g, spec).h().num_edges());
}
BENCHMARK(BM_Algorithm1)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void BM_FastCentralized(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = gen_connected_gnm(n, 6L * n, 9);
  const BuildSpec spec = spec_for("emulator_fast", 4, 0.35);
  for (auto _ : state) {
    auto r = build(g, spec);
    benchmark::DoNotOptimize(r.h().num_edges());
  }
  state.counters["edges"] = static_cast<double>(build(g, spec).h().num_edges());
}
BENCHMARK(BM_FastCentralized)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// Adversarial workload for the naive algorithm (paper eq. 14 worst case):
// cliques of size ~ n^(1/4) collapse in phase 0, leaving ~n/s phase-1
// clusters, while random chords keep the diameter tiny — so every phase-1
// exploration of Algorithm 1 covers the whole graph: Sigma |P_i| * |E|
// materializes. The fast builder's capped detection is immune.
Graph make_blob_chord_graph(Vertex n) {
  const Vertex s = static_cast<Vertex>(
      std::ceil(std::pow(static_cast<double>(n), 0.25))) + 2;
  const Vertex cliques = n / s;
  Graph base = gen_caveman(cliques, s);
  GraphBuilder b(base.num_vertices());
  for (const Edge& e : base.edges()) b.add_edge(e.u, e.v);
  Graph chords = gen_gnm(base.num_vertices(), base.num_vertices() / 4, 4242);
  for (const Edge& e : chords.edges()) b.add_edge(e.u, e.v);
  return b.build();
}

void BM_Algorithm1_Adversarial(benchmark::State& state) {
  const Graph g = make_blob_chord_graph(static_cast<Vertex>(state.range(0)));
  const BuildSpec spec = spec_for("emulator_centralized", 4);
  for (auto _ : state) {
    auto r = build(g, spec);
    benchmark::DoNotOptimize(r.h().num_edges());
  }
}
BENCHMARK(BM_Algorithm1_Adversarial)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void BM_Fast_Adversarial(benchmark::State& state) {
  const Graph g = make_blob_chord_graph(static_cast<Vertex>(state.range(0)));
  const BuildSpec spec = spec_for("emulator_fast", 4, 0.35);
  for (auto _ : state) {
    auto r = build(g, spec);
    benchmark::DoNotOptimize(r.h().num_edges());
  }
}
BENCHMARK(BM_Fast_Adversarial)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void BM_UltraSparseBuild(benchmark::State& state) {
  // The Corollary 2.15 regime: kappa ~ log n * log log n.
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = gen_connected_gnm(n, 6L * n, 3);
  const double log_n = std::log2(static_cast<double>(n));
  const int kappa = static_cast<int>(std::ceil(log_n * std::log2(log_n)));
  const BuildSpec spec = spec_for("emulator_fast", kappa, 0.3);
  for (auto _ : state) {
    auto r = build(g, spec);
    benchmark::DoNotOptimize(r.h().num_edges());
  }
}
BENCHMARK(BM_UltraSparseBuild)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace usne

BENCHMARK_MAIN();
