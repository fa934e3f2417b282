// usne_loadgen — drive a running usne_served daemon with a reproducible
// serve::WorkloadSpec over the wire and report qps + latency percentiles.
//
//   ./usne_loadgen --port 4242 --n 1024 --workload zipf --queries 8000
//                  --connections 4 --batch 16 --verify
//                  --algo emulator_fast --family er --kappa 8 --rho 0.3
//                  --seed 2024 --json -
//
// The workload is expanded locally (generate_workload — same expansion the
// daemon-side bench and usne_run use), split into per-connection contiguous
// slices, and sent as kBatch frames of --batch queries each. Every frame's
// request_id is the global index of its first query, so answers are
// reassembled positionally: the resulting order-sensitive FNV checksum is
// defined to equal serve::BatchResult::checksum for the same workload — the
// loopback gate that proves the wire path answers bit-identically to the
// in-process engine. With --verify, that engine is actually built here
// (same build flags as usne_served) and the equality is checked on the
// spot; without it, the checksum is just reported (scripts/pins.json pins it).
//
// Two pacing modes:
//   --mode closed            (default) each connection keeps exactly one
//                            batch in flight: latency == service time.
//   --mode open --target-qps Q
//                            batches are due on a fixed schedule (Q split
//                            evenly across connections); latency is
//                            measured from the *due* time, so queueing
//                            delay when the daemon falls behind is charged
//                            to the daemon, not hidden (open-loop
//                            coordinated-omission-free measurement).
//
// kBusy responses are retried after a short backoff and counted.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "obs/latency_histogram.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using Clock = usne::MonoClock;

struct ConnStats {
  std::int64_t busy_retries = 0;
  std::string error;
};

int run(int argc, char** argv) {
  using namespace usne;
  Cli cli(argc, argv,
          {{"host", "daemon address (default 127.0.0.1)"},
           {"port", "daemon TCP port (required)"},
           {"port-file", "read the port from FILE (usne_served --port-file)"},
           {"n", "vertex count the workload draws from (default 1024)"},
           {"workload", "uniform|zipf|grouped|point_vs_all (default zipf)"},
           {"queries", "workload size (default 8000)"},
           {"workload-seed", "workload generator seed (default 42)"},
           {"zipf-s", "zipf source exponent (default 1.1)"},
           {"group-size", "grouped run length (default 64)"},
           {"all-fraction", "point_vs_all SSSP fraction (default 0.05)"},
           {"connections", "concurrent client connections (default 4)"},
           {"batch", "queries per kBatch frame (default 16)"},
           {"mode", "closed|open pacing (default closed)"},
           {"target-qps", "open mode: aggregate offered load (default 5000)"},
           {"verify", "build the engine in-process and check the checksum"},
           {"algo", "verify: algorithm (default emulator_fast)"},
           {"family", "verify: graph family (default er)"},
           {"kappa", "verify: sparsity parameter (default 8)"},
           {"eps", "verify: stretch slack (default 0.25)"},
           {"rho", "verify: time exponent (default 0.3)"},
           {"seed", "verify: generator + build seed (default 2024)"},
           {"cache-mb", "verify: engine cache budget (default 64)"},
           {"json", "append the result row to FILE ('-' = stdout)"},
           {"scrape-metrics", "after the run, fetch the daemon's Prometheus metrics page to FILE ('-' = stdout)"}},
          /*allow_positional=*/false,
          /*switches=*/{"verify"});
  if (cli.help_requested() || !cli.errors().empty()) {
    for (const auto& e : cli.errors()) std::cerr << "error: " << e << '\n';
    std::cout << cli.usage("usne_loadgen");
    return cli.help_requested() ? 0 : 1;
  }

  const std::string host = cli.get("host", "127.0.0.1");
  const std::int64_t port_flag = cli.get_int("port", 0);
  if (port_flag < 0 || port_flag > 65535) {
    throw std::invalid_argument("--port " + std::to_string(port_flag) +
                                " is outside [0, 65535]");
  }
  std::uint16_t port = static_cast<std::uint16_t>(port_flag);
  if (cli.has("port-file")) {
    std::ifstream f(cli.get("port-file", ""));
    int p = 0;
    if (!(f >> p) || p <= 0 || p > 65535) {
      std::cerr << "error: could not read a port from --port-file\n";
      return 1;
    }
    port = static_cast<std::uint16_t>(p);
  }
  if (port == 0) {
    std::cerr << "error: --port (or --port-file) is required\n";
    return 1;
  }

  const Vertex n = cli.get_int_as<Vertex>("n", 1024);
  serve::WorkloadSpec workload;
  workload.kind = serve::parse_workload_kind(cli.get("workload", "zipf"));
  workload.num_queries = cli.get_int("queries", 8000);
  workload.seed =
      static_cast<std::uint64_t>(cli.get_int("workload-seed", 42));
  workload.zipf_s = cli.get_double("zipf-s", 1.1);
  workload.group_size = cli.get_int("group-size", 64);
  workload.all_fraction = cli.get_double("all-fraction", 0.05);

  const int connections =
      std::max(1, cli.get_int_as<int>("connections", 4));
  const std::size_t batch =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("batch", 16)));
  const std::string mode = cli.get("mode", "closed");
  if (mode != "closed" && mode != "open") {
    std::cerr << "error: --mode must be closed or open\n";
    return 1;
  }
  const bool open_loop = (mode == "open");
  const double target_qps = cli.get_double("target-qps", 5000.0);

  const std::vector<serve::Query> queries =
      serve::generate_workload(n, workload);
  const std::size_t total = queries.size();
  std::vector<Dist> answers(total, 0);

  // Contiguous per-connection slices: connection c owns
  // [c*per_conn, min((c+1)*per_conn, total)).
  const std::size_t per_conn = (total + connections - 1) / connections;

  std::vector<std::unique_ptr<obs::LatencyHistogram>> hist;
  std::vector<ConnStats> conn_stats(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    hist.push_back(std::make_unique<obs::LatencyHistogram>());
  }

  const Clock::time_point start = Clock::now();
  usne::Timer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t lo =
          std::min(total, static_cast<std::size_t>(c) * per_conn);
      const std::size_t hi = std::min(total, lo + per_conn);
      if (lo >= hi) return;
      ConnStats& st = conn_stats[static_cast<std::size_t>(c)];
      try {
        net::Client client;
        client.connect(host, port);
        // Open-loop schedule: this connection serves its share of
        // target_qps; batch i is due at start + i*batch/share.
        const double share_qps = target_qps / connections;
        std::size_t batch_index = 0;
        for (std::size_t i = lo; i < hi; i += batch, ++batch_index) {
          const std::size_t m = std::min(batch, hi - i);
          const std::span<const serve::Query> slice(queries.data() + i, m);
          Clock::time_point due = Clock::now();
          if (open_loop && share_qps > 0) {
            const auto offset = std::chrono::microseconds(static_cast<std::int64_t>(
                1e6 * static_cast<double>(batch_index) * static_cast<double>(batch) / share_qps));
            due = start + offset;
            std::this_thread::sleep_until(due);
          }
          for (;;) {
            try {
              const std::vector<Dist> got = client.query_batch(slice);
              for (std::size_t k = 0; k < m; ++k) answers[i + k] = got[k];
              break;
            } catch (const net::RpcError& e) {
              if (e.code() != net::ErrorCode::kBusy) throw;
              st.busy_retries += 1;
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
          }
          hist[static_cast<std::size_t>(c)]->record(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - due)
                  .count());
        }
      } catch (const std::exception& e) {
        st.error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.seconds();

  for (const ConnStats& st : conn_stats) {
    if (!st.error.empty()) {
      std::cerr << "error: connection failed: " << st.error << '\n';
      return 1;
    }
  }

  std::uint64_t checksum = serve::kChecksumSeed;
  for (const Dist d : answers) checksum = serve::checksum_accumulate(checksum, d);

  std::int64_t busy_retries = 0;
  for (const ConnStats& st : conn_stats) busy_retries += st.busy_retries;
  obs::LatencyHistogram merged;
  for (const auto& h : hist) merged.merge_from(*h);

  // --verify: the same workload through the in-process engine must produce
  // the identical order-sensitive checksum.
  int match = -1;  // -1 = not checked
  if (cli.get_bool("verify", false)) {
    BuildSpec spec;
    spec.algorithm = cli.get("algo", "emulator_fast");
    spec.params.kappa = cli.get_int_as<int>("kappa", 8);
    spec.params.eps = cli.get_double("eps", 0.25);
    spec.params.rho = cli.get_double("rho", 0.3);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.get_int("seed", 2024));
    spec.exec.seed = seed;
    const Graph g = gen_family(cli.get("family", "er"), n, seed);
    serve::ServeOptions options;
    options.cache_mb = cli.get_double("cache-mb", 64.0);
    const BuildOutput built = build(g, spec);
    const serve::QueryEngine engine(built, options);
    const serve::BatchResult reference = engine.serve(queries, 1);
    match = (reference.checksum == checksum) ? 1 : 0;
  }

  const double qps = wall_s > 0 ? static_cast<double>(total) / wall_s : 0;
  std::cout << "loadgen: " << serve::workload_kind_name(workload.kind)
            << ", " << total << " queries (seed " << workload.seed << ") over "
            << connections << " connection(s), batch = " << batch << ", mode = "
            << mode << (open_loop
                            ? " @ " + format_double(target_qps, 0) + " qps offered"
                            : std::string())
            << "\nthroughput: " << format_double(qps, 0) << " qps  ("
            << format_double(wall_s * 1e3, 1) << " ms wall, " << busy_retries
            << " busy retries)\nlatency: p50 = " << merged.percentile(0.50)
            << "us, p99 = " << merged.percentile(0.99)
            << "us, p999 = " << merged.percentile(0.999)
            << "us (per " << (open_loop ? "due-time" : "batch") << ")\n"
            << "checksum: " << checksum;
  if (match >= 0) {
    std::cout << "  verify: " << (match == 1 ? "MATCH" : "MISMATCH");
  }
  std::cout << '\n';

  // --scrape-metrics: one METRICS round-trip once the workload has fully
  // drained — the page is quiescent, so its usne_net_* counters reconcile
  // exactly with the daemon's request ledger (what scripts/pins.json
  // asserts).
  if (cli.has("scrape-metrics")) {
    net::Client scraper;
    scraper.connect(host, port);
    const std::string page = scraper.metrics_text();
    const std::string path = cli.get("scrape-metrics", "-");
    if (path == "-") {
      std::cout << page;
    } else {
      std::ofstream f(path);
      f << page;
      f.flush();
      if (!f) {
        std::cerr << "error: could not write " << path << '\n';
        return 1;
      }
    }
  }

  if (cli.has("json")) {
    std::ostringstream row;
    row << "{\"driver\": \"usne_loadgen\", \"workload\": \""
        << serve::workload_kind_name(workload.kind) << "\", \"n\": " << n
        << ", \"queries\": " << total
        << ", \"workload_seed\": " << workload.seed
        << ", \"connections\": " << connections << ", \"batch\": " << batch
        << ", \"mode\": \"" << mode << "\", \"busy_retries\": " << busy_retries
        << ", \"checksum\": " << checksum << ", \"match\": " << match
        << ", \"qps\": " << format_double(qps, 1)
        << ", \"wall_s\": " << format_double(wall_s, 4)
        << ", \"p50_us\": " << merged.percentile(0.50)
        << ", \"p99_us\": " << merged.percentile(0.99)
        << ", \"p999_us\": " << merged.percentile(0.999) << "}\n";
    const std::string path = cli.get("json", "-");
    if (path == "-") {
      std::cout << row.str();
    } else {
      std::ofstream f(path, std::ios::app);
      f << row.str();
      f.flush();
      if (!f) {
        std::cerr << "error: could not write " << path << '\n';
        return 1;
      }
    }
  }
  return match == 0 ? 2 : 0;
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
