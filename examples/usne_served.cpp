// usne_served — the network serving daemon: build a construction from CLI
// flags (same build vocabulary as usne_run), wrap it in serve::QueryEngine,
// and serve distance queries over TCP via net::Server until a signal.
//
//   ./usne_served --algo emulator_fast --family er --n 1024 --kappa 8
//                 --rho 0.3 --seed 2024 --port 0 --workers 2
//                 --port-file /tmp/usne.port --json /tmp/usne.stats.json
//
// Lifecycle:
//   SIGINT / SIGTERM   graceful shutdown: drain in-flight requests, flush
//                      responses, write the --json stats record, exit 0.
//   SIGHUP             live reload: rebuild the same (graph, spec) from
//                      scratch and swap the fresh engine behind the live
//                      socket — zero dropped in-flight requests.
//   --reload-fifo P    same as SIGHUP, but triggered by writing a byte to
//                      the named FIFO at P (created if absent) — for
//                      environments where signalling is awkward (check.sh).
//   --duration S       exit (gracefully) after S seconds — a safety net for
//                      scripted runs; 0 means run until signalled.
//
// The --port-file flag writes the actual bound port (resolving --port 0)
// once listening — the rendezvous the smoke test and loadgen use. The
// --json record embeds net::Server::stats_json(): counters, p50/p99/p999
// service-latency percentiles, cumulative + per-interval cache stats,
// build_info + uptime_s, and (when audits are on) the invariant ledger
// including the kDaemon request conservation counters.
//
// Observability extras:
//   --metrics-file F       rewrite F (atomically: tmp + rename) with the
//                          Prometheus metrics page every --stats-interval-s
//                          seconds and once at shutdown — file-based
//                          scraping without a wire client.
//   --stats-interval-s S   also log the one-line STATS JSON to stdout every
//                          S seconds (default 5 when --metrics-file is set,
//                          otherwise off).
//   --trace-out F          enable span tracing and dump Chrome trace-event
//                          JSON to F at shutdown.
//   --slow-query-us N      stderr SLOW_QUERY lines for engine queries at or
//                          over N microseconds.

#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/query_engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;
volatile std::sig_atomic_t g_reload = 0;

void on_signal(int sig) {
  if (sig == SIGHUP) {
    g_reload = 1;
  } else {
    g_shutdown = 1;
  }
}

int run(int argc, char** argv) {
  using namespace usne;
  Cli cli(argc, argv,
          {{"algo", "algorithm to build (default emulator_fast)"},
           {"family", "graph family (default er)"},
           {"n", "number of vertices (default 1024)"},
           {"kappa", "sparsity parameter (default 8)"},
           {"eps", "stretch slack in (0,1) (default 0.25)"},
           {"rho", "time exponent (default 0.3)"},
           {"rescale", "treat eps as the final target stretch (default off)"},
           {"threads", "build threads, 0 = hardware (default 1)"},
           {"seed", "generator + build seed (default 2024)"},
           {"cache-mb", "SSSP cache budget in MiB, <=0 off (default 64)"},
           {"cache-shards", "cache lock shards (default 16)"},
           {"host", "listen address (default 127.0.0.1)"},
           {"port", "TCP port, 0 = ephemeral (default 0)"},
           {"workers", "worker threads (default 2)"},
           {"max-queue", "admission bound on requests not yet replied to (default 1024)"},
           {"max-inflight", "per-connection in-flight cap (default 256)"},
           {"idle-timeout-ms", "close idle connections after (default 30000)"},
           {"port-file", "write the bound port to FILE once listening"},
           {"reload-fifo", "FIFO path; any write triggers a live reload"},
           {"duration", "exit after S seconds, 0 = until signal (default 0)"},
           {"json", "write the shutdown stats record to FILE ('-' = stdout)"},
           {"metrics-file", "rewrite FILE with the Prometheus metrics page periodically"},
           {"stats-interval-s", "metrics/stats logging interval in seconds (default 5)"},
           {"trace-out", "write span traces to FILE at shutdown (Chrome JSON)"},
           {"slow-query-us", "log engine queries at/over N us to stderr (default off)"}},
          /*allow_positional=*/false,
          /*switches=*/{"rescale"});
  if (cli.help_requested() || !cli.errors().empty()) {
    for (const auto& e : cli.errors()) std::cerr << "error: " << e << '\n';
    std::cout << cli.usage("usne_served");
    return cli.help_requested() ? 0 : 1;
  }

  BuildSpec spec;
  spec.algorithm = cli.get("algo", "emulator_fast");
  const std::string family = cli.get("family", "er");
  const Vertex n = cli.get_int_as<Vertex>("n", 1024);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 2024));
  spec.params.kappa = cli.get_int_as<int>("kappa", 8);
  spec.params.eps = cli.get_double("eps", 0.25);
  spec.params.rho = cli.get_double("rho", 0.3);
  spec.params.rescale = cli.get_bool("rescale", false);
  spec.exec.num_threads = cli.get_int_as<int>("threads", 1);
  spec.exec.seed = seed;

  serve::ServeOptions serve_options;
  serve_options.cache_mb = cli.get_double("cache-mb", 64.0);
  serve_options.cache_shards = cli.get_int_as<int>("cache-shards", 0);
  serve_options.slow_query_us = cli.get_int("slow-query-us", 0);

  net::ServerOptions server_options;
  server_options.host = cli.get("host", "127.0.0.1");
  const std::int64_t port = cli.get_int("port", 0);
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("--port " + std::to_string(port) +
                                " is outside [0, 65535]");
  }
  server_options.port = static_cast<std::uint16_t>(port);
  server_options.workers = cli.get_int_as<int>("workers", 2);
  server_options.max_queue = cli.get_int_as<int>("max-queue", 1024);
  server_options.max_inflight_per_conn =
      cli.get_int_as<int>("max-inflight", 256);
  server_options.idle_timeout_ms = cli.get_int("idle-timeout-ms", 30000);

  const double duration_s = cli.get_double("duration", 0.0);
  const std::string metrics_path = cli.get("metrics-file", "");
  const std::string trace_path = cli.get("trace-out", "");
  // Periodic stats logging is on whenever an interval or a metrics file is
  // requested; the interval defaults to 5 s.
  const double stats_interval_s =
      cli.has("stats-interval-s") ? cli.get_double("stats-interval-s", 5.0)
                                  : (metrics_path.empty() ? 0.0 : 5.0);
  const bool log_stats = cli.has("stats-interval-s");

  // Atomic rewrite (tmp + rename) so a concurrent reader of the metrics
  // file never sees a half-written page.
  auto write_metrics_file = [&]() -> bool {
    if (metrics_path.empty()) return true;
    const std::string tmp = metrics_path + ".tmp";
    {
      std::ofstream f(tmp);
      f << obs::Registry::global().prometheus_text();
      f.flush();
      if (!f) return false;
    }
    return std::rename(tmp.c_str(), metrics_path.c_str()) == 0;
  };

  if (!trace_path.empty()) obs::trace_set_enabled(true);

  // Build once up front; reloads repeat exactly this.
  const Graph g = gen_family(family, n, seed);
  auto build_engine = [&]() {
    const BuildOutput out = build(g, spec);
    return std::make_shared<serve::QueryEngine>(out, serve_options);
  };
  usne::Timer build_timer;
  std::shared_ptr<serve::QueryEngine> engine = build_engine();
  const double build_s = build_timer.seconds();

  net::Server server(engine, server_options);
  server.start();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGHUP, on_signal);

  std::cout << "usne_served: " << spec.algorithm << " on " << family
            << ", n = " << g.num_vertices() << ", |H| = "
            << engine->emulator().num_edges() << " (built in "
            << format_double(build_s, 2) << "s)\n"
            << "kernel: " << engine->kernel().json() << '\n'
            << "listening on " << server_options.host << ":" << server.port()
            << "  (workers = " << server_options.workers
            << ", max_queue = " << server_options.max_queue
            << ", max_inflight = " << server_options.max_inflight_per_conn
            << ")\n"
            << std::flush;

  if (cli.has("port-file")) {
    const std::string path = cli.get("port-file", "");
    std::ofstream f(path);
    f << server.port() << "\n";
    f.flush();
    if (!f) {
      std::cerr << "error: could not write " << path << '\n';
      server.stop();
      return 1;
    }
  }

  // Optional FIFO reload trigger. O_RDWR keeps the read end open across
  // writers, so the fd stays valid after each writer closes.
  int fifo_fd = -1;
  const std::string fifo_path = cli.get("reload-fifo", "");
  if (!fifo_path.empty()) {
    ::mkfifo(fifo_path.c_str(), 0600);  // EEXIST is fine
    fifo_fd = ::open(fifo_path.c_str(), O_RDWR | O_NONBLOCK);
    if (fifo_fd < 0) {
      std::cerr << "error: could not open reload fifo " << fifo_path << '\n';
      server.stop();
      return 1;
    }
  }

  usne::Timer uptime;
  usne::Timer stats_timer;
  while (g_shutdown == 0) {
    if (duration_s > 0 && uptime.seconds() >= duration_s) break;
    if (fifo_fd >= 0) {
      char buf[256];
      if (::read(fifo_fd, buf, sizeof(buf)) > 0) g_reload = 1;
    }
    if (g_reload != 0) {
      g_reload = 0;
      usne::Timer reload_timer;
      server.reload(build_engine());
      std::cout << "usne_served: reloaded (rebuilt in "
                << format_double(reload_timer.seconds(), 2) << "s)\n"
                << std::flush;
    }
    if (stats_interval_s > 0 && stats_timer.seconds() >= stats_interval_s) {
      stats_timer.reset();
      if (!write_metrics_file()) {
        std::cerr << "error: could not write " << metrics_path << '\n';
      }
      if (log_stats) {
        std::cout << "STATS " << server.stats_json() << '\n' << std::flush;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Final metrics page before stop(): stop() deregisters the server's
  // collector, and the last page should still carry the usne_net_* series.
  if (!write_metrics_file()) {
    std::cerr << "error: could not write " << metrics_path << '\n';
    server.stop();
    return 1;
  }
  server.stop();
  if (fifo_fd >= 0) ::close(fifo_fd);
  if (!trace_path.empty()) {
    obs::trace_set_enabled(false);
    std::ofstream f(trace_path);
    f << obs::trace_dump_chrome_json();
    f.flush();
    if (!f) {
      std::cerr << "error: could not write " << trace_path << '\n';
      return 1;
    }
    std::cout << "usne_served: wrote " << trace_path << " ("
              << obs::trace_retained_events() << " trace events)\n";
  }

  const std::string record = "{\"driver\": \"usne_served\", \"algo\": \"" +
                             spec.algorithm + "\", \"family\": \"" + family +
                             "\", \"n\": " + std::to_string(g.num_vertices()) +
                             ", \"kappa\": " + std::to_string(spec.params.kappa) +
                             ", \"seed\": " + std::to_string(seed) +
                             ", \"port\": " + std::to_string(server.port()) +
                             ", \"server\": " + server.stats_json() + "}\n";
  std::cout << "usne_served: shut down cleanly\n" << record << std::flush;
  if (cli.has("json")) {
    const std::string path = cli.get("json", "-");
    if (path != "-") {
      std::ofstream f(path);
      f << record;
      f.flush();
      if (!f) {
        std::cerr << "error: could not write " << path << '\n';
        return 1;
      }
    }
  }
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
