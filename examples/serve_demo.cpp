// Serving scenario demo: preprocess a network once, then answer a skewed
// stream of distance queries from many threads through serve::QueryEngine.
//
// The pipeline the serve subsystem packages:
//
//   usne::build()  ->  QueryEngine(BuildOutput)  ->  generate_workload()
//                  ->  engine.serve(queries, threads)  ->  BatchResult
//
// plus a stretch sample proving every served answer obeys the paper's
// d_G <= d <= alpha * d_G + beta guarantee.
//
//   ./serve_demo [--n 4096] [--queries 50000] [--threads 0] [--cache-mb 32]

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "serve/query_engine.hpp"
#include "serve/stats.hpp"
#include "serve/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace usne;
  Cli cli(argc, argv,
          {{"n", "number of vertices (default 4096)"},
           {"queries", "workload size (default 50000)"},
           {"threads", "serving lanes, 0 = hardware (default 0)"},
           {"cache-mb", "SSSP cache budget in MiB (default 32)"},
           {"seed", "graph + workload seed (default 11)"}});
  if (cli.help_requested() || !cli.errors().empty()) {
    for (const auto& e : cli.errors()) std::cerr << "error: " << e << '\n';
    std::cout << cli.usage("serve_demo");
    return cli.help_requested() ? 0 : 1;
  }
  const Vertex n = static_cast<Vertex>(cli.get_int("n", 4096));
  const std::int64_t num_queries = cli.get_int("queries", 50000);
  const int threads_flag = static_cast<int>(cli.get_int("threads", 0));
  // Resolve 0 = hardware up front so the table labels real lane counts
  // (at least 2, so the multi-threaded row exists even on one core).
  const int threads =
      threads_flag == 0
          ? static_cast<int>(std::max(2u, std::thread::hardware_concurrency()))
          : threads_flag;
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));

  // Preprocess: one ultra-sparse emulator through the unified API.
  const Graph g = gen_connected_gnm(n, 8 * static_cast<std::int64_t>(n), seed);
  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params = {22, 0.25, 0.3, false};
  spec.exec.keep_audit_data = false;
  Timer build_timer;
  const BuildOutput built = build(g, spec);
  std::cout << "network: n = " << n << ", m = " << g.num_edges()
            << "  ->  |H| = " << built.h().num_edges() << " in "
            << format_double(build_timer.seconds(), 2) << "s\n";

  serve::ServeOptions options;
  options.cache_mb = cli.get_double("cache-mb", 32.0);
  const serve::QueryEngine engine(built, options);

  // A zipf-source stream: most traffic asks about a hot head of sources,
  // the shape the sharded cache is built for.
  serve::WorkloadSpec workload;
  workload.kind = serve::WorkloadKind::kZipf;
  workload.num_queries = num_queries;
  workload.seed = seed;
  const std::vector<serve::Query> queries = serve::generate_workload(n, workload);

  Table table({"threads", "qps", "wall_ms", "sssp", "hits", "hit_rate"});
  std::vector<int> lane_rows = {1};
  if (threads > 1) lane_rows.push_back(threads);
  for (const int lanes : lane_rows) {
    // Fresh engine per row so each row pays its own cold-cache cost.
    const serve::QueryEngine row_engine(built, options);
    const serve::BatchResult batch = row_engine.serve(queries, lanes);
    const std::int64_t answered = batch.point_queries + batch.all_queries;
    table.row()
        .add(lanes)
        .add(batch.qps, 0)
        .add(batch.wall_s * 1e3, 1)
        .add(batch.cache.sssp_runs)
        .add(batch.cache.hits)
        .add(answered > 0 ? static_cast<double>(batch.cache.hits) /
                                static_cast<double>(answered)
                          : 0,
             3);
  }
  table.print(std::cout, "zipf workload, " + std::to_string(queries.size()) +
                             " queries (seed " + std::to_string(seed) + ")");

  const serve::StretchSample stretch =
      serve::sample_query_stretch(g, engine, queries, 200);
  std::cout << "stretch sample: " << stretch.pairs << " pairs vs exact BFS, "
            << stretch.violations << " violations, " << stretch.underruns
            << " underruns, max additive surplus " << stretch.max_additive
            << "  (guarantee: d <= " << format_double(engine.alpha(), 3)
            << " * d_G + " << engine.beta() << ")\n";
  return stretch.ok() ? 0 : 1;
}
