// Experiment E10 — million-vertex scale tier.
//
// Everything below the serving layer was rebuilt for this tier: streamed
// generators (graph/stream_gen.hpp) that materialize one edge array and one
// CSR, and the flat-frontier Dial kernel (path/sssp_kernel.hpp) over the
// packed WeightedGraph::Csr. This bench is the proof at n in {2^17, 2^20}:
// wall time, peak RSS, generation edges/sec, SSSP relaxation throughput and
// serving qps, written as BENCH_scale.json. It is the only serving row at
// n = 2^20.
//
// Hard gate (exit 1, not a hope): serial and multi-threaded serving
// answers are bit-identical. scripts/check.sh pins the answer checksums.
//
// The serving workload is H = G with deterministic weights in [1, 16]
// (seeded per edge): the scale tier exercises the kernel and generators,
// not the emulator constructions, which keep their own tiers (E1..E9).
// Grouped sources keep the SSSP count bounded, so the row cost is a handful
// of full-graph SSSPs — the serving regime the cache and source memo are
// built for.
//
// scripts/check.sh runs `--smoke` (n = 2^12) as the CI gate and pins the
// committed BENCH_scale.json rows; the full tier is regenerated manually
// when the trajectory should move.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "graph/stream_gen.hpp"
#include "graph/weighted_graph.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

/// Deterministic per-edge weight in [1, 16]: hashes the edge key so the
/// weight assignment is independent of generation order.
Dist edge_weight_of(Vertex u, Vertex v) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
      static_cast<std::uint32_t>(v);
  return 1 + static_cast<Dist>(SplitMix64(key).next() % 16);
}

}  // namespace
}  // namespace usne

int main(int argc, char** argv) {
  using namespace usne;
  std::string json_path;
  bool smoke = false;
  int threads = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const std::string arg = argv[++i];
      threads = arg == "max" ? 0 : static_cast<int>(std::stol(arg));
    } else {
      std::cerr << "usage: bench_scale [--json FILE] [--smoke] "
                   "[--threads N|max]\n";
      return 2;
    }
  }
  if (threads == 0) {
    threads = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  }

  bench::banner("E10 bench_scale",
                "Million-vertex tier: streamed generation + flat-frontier "
                "Dial SSSP; serial == parallel answers.");
  Timer total;
  bool failed = false;

  const std::vector<Vertex> sizes =
      smoke ? std::vector<Vertex>{Vertex{1} << 12}
            : std::vector<Vertex>{Vertex{1} << 17, Vertex{1} << 20};
  Table table({"n", "m", "gen_s", "gen_meps", "build_s",
               "sssp_runs", "qps", "sssp_meps", "peak_rss_mb", "identical"});
  std::string json;
  for (const Vertex n : sizes) {
    const std::int64_t m = 8 * static_cast<std::int64_t>(n);
    StreamGenReport gen_report;
    Timer gen_timer;
    const Graph g = stream_connected_gnm(n, m, 2024, &gen_report);
    const double gen_s = gen_timer.seconds();
    const double gen_eps =
        gen_s > 0 ? static_cast<double>(g.num_edges()) / gen_s : 0;

    // Weighted serving graph, one bulk construction (no per-edge hash map).
    std::vector<WeightedEdge> weighted;
    weighted.reserve(static_cast<std::size_t>(g.num_edges()));
    for (const Edge& e : g.edges()) {
      weighted.push_back({e.u, e.v, edge_weight_of(e.u, e.v)});
    }
    const WeightedGraph h =
        WeightedGraph::from_edges(g.num_vertices(), std::move(weighted));

    serve::WorkloadSpec workload;
    workload.kind = serve::WorkloadKind::kGrouped;
    workload.num_queries = smoke ? 512 : 2048;
    workload.group_size = 256;
    workload.seed = 42;
    const std::vector<serve::Query> queries =
        serve::generate_workload(g.num_vertices(), workload);

    serve::ServeOptions options;
    options.cache_mb = 512;
    Timer build_timer;
    const serve::QueryEngine engine(h, 1.0, 0, options);
    const serve::QueryEngine cold(h, 1.0, 0, options);
    const double build_s = build_timer.seconds();

    const serve::BatchResult serial = engine.serve(queries, 1);
    const serve::BatchResult parallel = cold.serve(queries, threads);

    const bool identical = serial.answers == parallel.answers;
    if (!identical) {
      std::cerr << "FAIL: serial and parallel answers diverge (n = " << n
                << ")\n";
      failed = true;
    }

    // SSSP relaxation throughput of the parallel batch: arcs touched per
    // second across the SSSPs actually executed.
    const std::int64_t arcs = 2 * g.num_edges();
    const double sssp_eps =
        parallel.wall_s > 0
            ? static_cast<double>(parallel.cache.sssp_runs) *
                  static_cast<double>(arcs) / parallel.wall_s
            : 0;
    const double peak_rss = util::peak_rss_mb();  // process HWM, monotone

    table.row()
        .add(n)
        .add(g.num_edges())
        .add(gen_s, 2)
        .add(gen_eps / 1e6, 2)
        .add(build_s, 2)
        .add(parallel.cache.sssp_runs)
        .add(parallel.qps, 0)
        .add(sssp_eps / 1e6, 1)
        .add(peak_rss, 0)
        .add(identical ? "yes" : "NO");

    if (!json.empty()) json += ",\n";
    json += "    {\"n\": " + std::to_string(n) +
            ", \"m\": " + std::to_string(g.num_edges()) +
            ", \"queries\": " + std::to_string(workload.num_queries) +
            ", \"threads\": " + std::to_string(threads) +
            ", \"checksum\": " + std::to_string(parallel.checksum) +
            ", \"sssp_runs\": " + std::to_string(parallel.cache.sssp_runs) +
            ", \"gen_s\": " + format_double(gen_s, 3) +
            ", \"gen_edges_per_s\": " + format_double(gen_eps, 0) +
            ", \"build_s\": " + format_double(build_s, 3) +
            ", \"wall_s\": " + format_double(parallel.wall_s, 4) +
            ", \"qps\": " + format_double(parallel.qps, 0) +
            ", \"serial_qps\": " + format_double(serial.qps, 0) +
            ", \"sssp_edges_per_s\": " + format_double(sssp_eps, 0) +
            ", \"peak_rss_mb\": " + format_double(peak_rss, 1) +
            ", \"gen\": " + gen_report.stats_json() + "}";
  }
  table.print(std::cout,
              "E10: scale tier (streamed er-connected, deg 8, weights 1..16, "
              "grouped queries, threads=" + std::to_string(threads) + ")");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"scale\",\n  \"smoke\": " << (smoke ? 1 : 0)
        << ",\n  \"threads\": " << threads << ",\n  \"rows\": [\n"
        << json << "\n  ]\n}\n";
    std::cout << "\n[wrote " << json_path << "]\n";
  }

  bench::note("Interpretation: gen_meps is streamed generation throughput "
              "(unique edges/s); sssp_meps is kernel relaxation throughput "
              "(arcs/s across the batch's SSSPs) — the number the flat "
              "frontier + packed CSR work moves. peak_rss_mb is the process "
              "high-water mark and therefore monotone across rows; the "
              "n=2^17 row runs first so its figure is not inflated by the "
              "2^20 row. 'identical' certifies serial == parallel answers "
              "bit-for-bit.");
  std::cout << "\n[E10 done in " << format_double(total.seconds(), 1)
            << "s]\n";
  return failed ? 1 : 0;
}
