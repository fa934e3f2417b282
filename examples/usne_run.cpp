// usne_run — build any registered construction from CLI flags through the
// unified API (api/build.hpp) and emit the uniform stats JSON; with the
// `query` subcommand, additionally serve a reproducible distance-query
// workload against the built H through serve::QueryEngine.
//
//   ./usne_run --list                     enumerate registered algorithms
//   ./usne_run --describe spanner         metadata for one algorithm
//   ./usne_run --algo emulator_congest --family er --n 128 --kappa 4
//              --rho 0.49 --eps 0.4 --seed 2024 --threads 1 --json out.json
//   ./usne_run --algo spanner_congest --transport faulty --drop-p 0.05
//              --dup-p 0.02 --transport-seed 7      (lossy links)
//   ./usne_run --algo emulator_congest --transport async --latency-max 4
//              --transport-seed 7                   (variable latency)
//   ./usne_run query --algo emulator_fast --family er --n 1024
//              --workload zipf --queries 10000 --qps-threads 4 --cache-mb 8
//              --workload-seed 42 --stretch-sample 200 --json -
//
// The build JSON record embeds BuildOutput::stats_json(), so the counters
// (edges/phases, and rounds/messages/words for CONGEST variants) are the
// same uniform StatsMap every other consumer of the API sees; the registry
// smoke in scripts/pins.json compares them with BENCH_congest.json.
// The query JSON record embeds BatchResult::stats_json(); pins.json pins
// its `checksum` over all answers. The build record carries `h_digest`, a
// fingerprint of H that pins.json pins.

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "serve/query_engine.hpp"
#include "serve/stats.hpp"
#include "serve/workload.hpp"
#include "util/build_info.hpp"
#include "util/cli.hpp"
#include "util/invariant.hpp"
#include "util/mem.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  // The registry reports unknown algorithms / unsupported parameter
  // combinations, and gen_family an unknown --family, via
  // std::invalid_argument whose message lists the accepted names, and a
  // schedule whose beta does not fit in int64 via
  // std::overflow_error; surface both as a CLI error, not a terminate().
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::overflow_error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

namespace {

/// Extra JSON field carrying the invariant-audit counters — only when
/// audits are enabled (USNE_AUDIT=1 or a debug build), so default release
/// records stay byte-identical with the pre-invariant driver.
std::string invariants_field() {
  if (!usne::inv::audits_enabled()) return "";
  return ", \"invariants\": " + usne::inv::counters_json();
}

/// FNV-1a over H's edge list as (min(u, v), max(u, v), w) triples sorted
/// ascending, as 16 hex digits: a fingerprint of H that does not depend on
/// the order the builder inserted its edges in.
std::string h_digest(const usne::WeightedGraph& h) {
  std::vector<std::tuple<usne::Vertex, usne::Vertex, usne::Dist>> edges;
  edges.reserve(h.edges().size());
  for (const usne::WeightedEdge& e : h.edges()) {
    edges.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.w);
  }
  std::sort(edges.begin(), edges.end());
  std::uint64_t digest = usne::serve::kChecksumSeed;
  for (const auto& [u, v, w] : edges) {
    digest = usne::serve::checksum_accumulate(digest, u);
    digest = usne::serve::checksum_accumulate(digest, v);
    digest = usne::serve::checksum_accumulate(digest, w);
  }
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << digest;
  return out.str();
}

/// `--profile` for a centralized build (emulator_fast, spanner,
/// spanner_em19): wall time per (phase, task), the share of the build each
/// takes, the peak RSS when it ended, and how much of the build the tasks
/// cover.
void print_wall_profile(const std::vector<usne::congest::PhaseProfileEntry>& prof,
                        double build_s) {
  using usne::format_double;
  usne::Table table({"task", "wall_ms", "share_pct", "peak_rss_mb"});
  double total_s = 0;
  for (const usne::congest::PhaseProfileEntry& e : prof) {
    table.row()
        .add(e.label)
        .add(e.times.wall_s * 1e3, 3)
        .add(build_s > 0 ? e.times.wall_s / build_s * 100.0 : 0.0, 1)
        .add(e.peak_rss_mb, 1);
    total_s += e.times.wall_s;
  }
  table.print(std::cout, "construction profile");
  std::cout << "profile: " << prof.size() << " tasks, task wall = "
            << format_double(total_s * 1e3, 3) << " ms of a "
            << format_double(build_s * 1e3, 3) << " ms build\n";
}

/// Share of the summed scheduler wall time the attributed stages cover.
/// scripts/pins.json gates it at >= 0.95 for both CONGEST constructions:
/// anything less means a stage is escaping attribution.
double stage_coverage(
    const std::vector<usne::congest::PhaseProfileEntry>& prof) {
  usne::congest::StageTimes total;
  for (const usne::congest::PhaseProfileEntry& e : prof) total += e.times;
  return total.wall_s > 0 ? total.stage_sum_s() / total.wall_s : 1.0;
}

/// `--profile`: per-(phase, task) rounds (and how many were delivered by
/// pull), scheduler stage breakdown, simulator throughput (messages per
/// second of scheduler wall) and peak RSS when the task ended, plus the
/// stage coverage. Centralized builds have no scheduler stages and print
/// their wall-time profile instead.
void print_profile(const usne::BuildOutput& out, double build_s) {
  using usne::format_double;
  const std::vector<usne::congest::PhaseProfileEntry>& prof = out.profile;
  if (prof.empty()) {
    std::cout << "profile: empty (" << out.algorithm << " is not profiled)\n";
    return;
  }
  if (!out.distributed) {
    print_wall_profile(prof, build_s);
    return;
  }
  usne::Table table({"task", "rounds", "pull_rounds", "deliver_ms",
                     "compute_ms", "replay_ms", "end_round_ms", "other_ms",
                     "wall_ms", "msgs_per_s", "peak_rss_mb"});
  double wall_s = 0;
  for (const usne::congest::PhaseProfileEntry& e : prof) {
    const usne::congest::StageTimes& t = e.times;
    table.row()
        .add(e.label)
        .add(t.rounds)
        .add(t.pull_rounds)
        .add(t.deliver_s * 1e3, 3)
        .add(t.compute_s * 1e3, 3)
        .add(t.replay_s * 1e3, 3)
        .add(t.end_round_s * 1e3, 3)
        .add((t.init_s + t.drain_s) * 1e3, 3)
        .add(t.wall_s * 1e3, 3)
        .add(t.msgs_per_s(), 0)
        .add(e.peak_rss_mb, 1);
    wall_s += t.wall_s;
  }
  table.print(std::cout, "construction profile");
  std::cout << "profile: " << prof.size() << " tasks, scheduler wall = "
            << format_double(wall_s * 1e3, 3) << " ms, stage coverage = "
            << format_double(stage_coverage(prof) * 100.0, 1) << "%\n";
}

/// `--profile` JSON rider: labeled stage times, rounds (pull rounds among
/// them) and peak RSS, one object per task, and for a CONGEST build the
/// stage coverage.
std::string profile_json(const usne::BuildOutput& built) {
  using usne::format_double;
  const std::vector<usne::congest::PhaseProfileEntry>& prof = built.profile;
  std::ostringstream out;
  if (built.distributed) {
    out << ", \"stage_coverage\": " << stage_coverage(prof);
  }
  out << ", \"profile\": [";
  for (std::size_t i = 0; i < prof.size(); ++i) {
    const usne::congest::StageTimes& t = prof[i].times;
    if (i > 0) out << ", ";
    out << "{\"compute_s\": " << t.compute_s
        << ", \"deliver_s\": " << t.deliver_s
        << ", \"drain_s\": " << t.drain_s
        << ", \"end_round_s\": " << t.end_round_s
        << ", \"init_s\": " << t.init_s << ", \"messages\": " << t.messages
        << ", \"peak_rss_mb\": " << format_double(prof[i].peak_rss_mb, 1)
        << ", \"pull_rounds\": " << t.pull_rounds
        << ", \"replay_s\": " << t.replay_s << ", \"rounds\": " << t.rounds
        << ", \"task\": \"" << prof[i].label
        << "\", \"wall_s\": " << t.wall_s << "}";
  }
  out << "]";
  return out.str();
}

/// `--trace-out FILE`: dump the per-thread span rings as one Chrome
/// trace-event JSON file (chrome://tracing / Perfetto load it directly).
int dump_trace(const std::string& path) {
  usne::obs::trace_set_enabled(false);
  std::ofstream file(path);
  file << usne::obs::trace_dump_chrome_json();
  file.flush();
  if (!file) {
    std::cerr << "error: could not write " << path << '\n';
    return 1;
  }
  std::cout << "[wrote " << path << ": " << usne::obs::trace_retained_events()
            << " trace events, " << usne::obs::trace_dropped_events()
            << " dropped]\n";
  return 0;
}

/// `usne_run query`: wrap the built H in a QueryEngine, expand the
/// requested workload, serve it, and report throughput + answer quality.
int run_query(const usne::Cli& cli, const usne::Graph& g,
              const usne::BuildSpec& spec, const usne::BuildOutput& built,
              const std::string& family, std::uint64_t seed, double build_s) {
  using namespace usne;

  serve::WorkloadSpec workload;
  workload.kind = serve::parse_workload_kind(cli.get("workload", "zipf"));
  workload.num_queries = cli.get_int("queries", 10000);
  workload.seed = static_cast<std::uint64_t>(cli.get_int("workload-seed", 42));
  workload.zipf_s = cli.get_double("zipf-s", 1.1);
  workload.group_size = cli.get_int("group-size", 64);
  workload.all_fraction = cli.get_double("all-fraction", 0.05);

  serve::ServeOptions options;
  options.cache_mb = cli.get_double("cache-mb", 64.0);
  options.cache_shards = cli.get_int_as<int>("cache-shards", 0);
  options.slow_query_us = cli.get_int("slow-query-us", 0);
  // Per-query service-latency percentiles ride along in the query record
  // (the same obs::LatencyHistogram the daemon's STATS endpoint merges).
  options.record_latency = true;
  const int qps_threads = cli.get_int_as<int>("qps-threads", 1);
  // The stretch gate only applies where a stretch claim exists: randomized
  // baselines carry no per-instance guarantee (has_guarantee = false), and
  // builds under a non-ideal transport are robustness workloads whose
  // outputs deliberately void the (alpha, beta) claim (see README).
  const bool check_stretch =
      built.has_guarantee &&
      spec.exec.transport.model == congest::TransportModel::kIdeal;
  const std::int64_t stretch_pairs =
      check_stretch ? cli.get_int("stretch-sample", 100) : 0;

  const serve::QueryEngine engine(built, options);
  const std::vector<serve::Query> queries =
      serve::generate_workload(g.num_vertices(), workload);
  const serve::BatchResult batch = engine.serve(queries, qps_threads);
  const serve::StretchSample stretch =
      stretch_pairs > 0
          ? serve::sample_query_stretch(g, engine, queries, stretch_pairs)
          : serve::StretchSample{};

  std::cout << "serve: " << spec.algorithm << " on " << family
            << ", n = " << g.num_vertices() << ", |H| = "
            << built.h().num_edges() << "  (built in "
            << format_double(build_s, 2) << "s)\n"
            << "workload: " << serve::workload_kind_name(workload.kind)
            << ", " << queries.size() << " queries (seed " << workload.seed
            << "), threads = " << qps_threads << ", cache = ";
  if (options.cache_mb > 0) {
    std::cout << format_double(options.cache_mb, 1) << " MiB\n";
  } else {
    std::cout << "off\n";
  }
  const serve::KernelInfo& kernel = engine.kernel();
  std::cout << "kernel: " << kernel.name() << " (core " << kernel.core;
  if (kernel.structural) {
    std::cout << ", max depth " << kernel.max_depth << ", table "
              << kernel.table_bytes << " B, built in "
              << format_double(kernel.build_s * 1e3, 2) << " ms";
  }
  std::cout << ")\n"
            << "throughput: " << format_double(batch.qps, 0) << " qps  ("
            << format_double(batch.wall_s * 1e3, 1) << " ms; "
            << batch.cache.structural << " structural, "
            << batch.cache.sssp_runs << " SSSP runs, "
            << batch.cache.hits << " cache hits, " << batch.cache.evictions
            << " evictions)\n"
            << "peak rss: " << format_double(util::peak_rss_mb(), 1)
            << " MiB\n";
  if (batch.latency) {
    std::cout << "latency: p50 = " << batch.latency->percentile(0.50)
              << "us, p99 = " << batch.latency->percentile(0.99)
              << "us, p999 = " << batch.latency->percentile(0.999)
              << "us per query\n";
  }
  std::cout << "checksum: " << batch.checksum << '\n';
  if (stretch_pairs > 0) {
    std::cout << "stretch sample: " << stretch.pairs << " pairs vs BFS on G, "
              << stretch.violations << " violations, " << stretch.underruns
              << " underruns (guarantee d <= "
              << format_double(engine.alpha(), 3) << " * d_G + "
              << engine.beta() << ")\n";
    if (!stretch.ok()) {
      std::cerr << "error: stretch guarantee violated\n";
      return 1;
    }
  } else if (!check_stretch) {
    std::cout << "stretch sample: skipped (this build carries no stretch "
                 "guarantee)\n";
  }

  if (cli.has("json")) {
    std::ostringstream record;
    record << "{\"driver\": \"usne_run\", \"mode\": \"query\", \"algo\": \""
           << spec.algorithm << "\", \"family\": \"" << family
           << "\", \"n\": " << g.num_vertices()
           << ", \"kappa\": " << spec.params.kappa << ", \"seed\": " << seed
           << ", \"workload\": \"" << serve::workload_kind_name(workload.kind)
           << "\", \"workload_seed\": " << workload.seed
           << ", \"qps_threads\": " << qps_threads
           << ", \"cache_mb\": " << format_double(options.cache_mb, 2)
           << ", \"peak_rss_mb\": " << format_double(util::peak_rss_mb(), 1)
           << ", \"edges\": " << built.h().num_edges()
           << ", \"kernel\": " << kernel.json()
           << ", \"serve\": " << batch.stats_json()
           << ", \"latency\": "
           << (batch.latency ? batch.latency->stats_json() : std::string("{}"))
           << ", \"stretch\": " << stretch.stats_json()
           << ", \"build_info\": " << util::build_info_json()
           << invariants_field() << "}\n";
    const std::string path = cli.get("json", "-");
    if (path == "-") {
      std::cout << record.str();
    } else {
      std::ofstream file(path);
      file << record.str();
      file.flush();
      if (!file) {
        std::cerr << "error: could not write " << path << '\n';
        return 1;
      }
      std::cout << "[wrote " << path << "]\n";
    }
  }
  return 0;
}

int run(int argc, char** argv) {
  using namespace usne;
  Cli cli(argc, argv,
          {{"algo", "algorithm to build (see --list)"},
           {"list", "list registered algorithms and exit"},
           {"describe", "print metadata for one algorithm and exit"},
           {"family", "graph family (default er; see generators.hpp)"},
           {"n", "number of vertices (default 256)"},
           {"kappa", "sparsity parameter (default 4)"},
           {"eps", "stretch slack in (0,1) (default 0.25)"},
           {"rho", "time exponent in (1/kappa, 1/2) (default 0.45)"},
           {"rescale", "treat eps as the final target stretch (default off)"},
           {"threads", "CONGEST scheduler lanes, 0 = hardware (default 1)"},
           {"seed", "generator + baseline seed (default 2024)"},
           {"audit", "retain audit data (default off)"},
           {"json", "write the uniform stats JSON to FILE ('-' = stdout)"},
           {"transport", "delivery model ideal|faulty|async (default ideal)"},
           {"drop-p", "faulty: per-message drop probability (default 0)"},
           {"dup-p", "faulty: per-message duplicate probability (default 0)"},
           {"latency-max", "async: latency uniform in [1, L] rounds (default 1)"},
           {"transport-seed", "seed of the transport hash (default 1)"},
           {"workload", "query: uniform|zipf|grouped|point_vs_all (default zipf)"},
           {"queries", "query: workload size (default 10000)"},
           {"workload-seed", "query: workload generator seed (default 42)"},
           {"zipf-s", "query: zipf source exponent (default 1.1)"},
           {"group-size", "query: grouped run length (default 64)"},
           {"all-fraction", "query: point_vs_all SSSP fraction (default 0.05)"},
           {"qps-threads", "query: serving lanes, 0 = hardware (default 1)"},
           {"cache-mb", "query: SSSP cache budget in MiB, <=0 off (default 64)"},
           {"cache-shards", "query: cache lock shards (default 16)"},
           {"stretch-sample", "query: pairs stretch-checked vs BFS on G (default 100)"},
           {"profile", "print the per-(phase, task) construction profile"},
           {"trace-out", "write span traces to FILE (Chrome trace-event JSON)"},
           {"slow-query-us", "query: log queries at/over N us to stderr (default off)"}},
          /*allow_positional=*/true,
          /*switches=*/{"list", "rescale", "audit", "profile"});
  if (cli.help_requested() || !cli.errors().empty()) {
    for (const auto& e : cli.errors()) std::cerr << "error: " << e << '\n';
    std::cout << cli.usage("usne_run");
    return cli.help_requested() ? 0 : 1;
  }

  if (cli.get_bool("list", false)) {
    for (const std::string& name : algorithms()) std::cout << name << '\n';
    return 0;
  }
  if (cli.has("describe")) {
    const AlgorithmInfo& info = describe(cli.get("describe", ""));
    std::cout << info.name << ": " << info.summary << '\n'
              << "  kind=" << info.kind << " model=" << info.model
              << (info.deterministic ? " deterministic" : " randomized")
              << (info.baseline ? " baseline" : " paper-variant")
              << (info.uses_rho ? " uses-rho" : "")
              << (info.uses_seed ? " uses-seed" : "")
              << (info.supports_rescale ? " supports-rescale" : "")
              << (info.supports_transport ? " supports-transport" : "") << '\n';
    return 0;
  }

  // `usne_run query ...` switches to serving mode after the build.
  const bool query_mode =
      !cli.positional().empty() && cli.positional().front() == "query";

  BuildSpec spec;
  spec.algorithm = cli.get("algo", "");
  // A bare positional is accepted as the algorithm name: `usne_run spanner`
  // (in query mode the algorithm may follow the subcommand).
  if (spec.algorithm.empty()) {
    const std::size_t positional_algo = query_mode ? 1 : 0;
    if (cli.positional().size() > positional_algo) {
      spec.algorithm = cli.positional()[positional_algo];
    }
  }
  if (spec.algorithm.empty() && query_mode) {
    spec.algorithm = "emulator_fast";  // the serving default builder
  }
  if (spec.algorithm.empty()) {
    std::cerr << "error: --algo is required (try --list)\n";
    return 1;
  }
  const std::string family = cli.get("family", "er");
  const Vertex n = cli.get_int_as<Vertex>("n", 256);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 2024));
  spec.params.kappa = cli.get_int_as<int>("kappa", 4);
  spec.params.eps = cli.get_double("eps", 0.25);
  spec.params.rho = cli.get_double("rho", 0.45);
  spec.params.rescale = cli.get_bool("rescale", false);
  spec.exec.num_threads = cli.get_int_as<int>("threads", 1);
  spec.exec.keep_audit_data = cli.get_bool("audit", false);
  spec.exec.profile = cli.get_bool("profile", false);
  spec.exec.seed = seed;
  spec.exec.transport.model =
      congest::parse_transport_model(cli.get("transport", "ideal"));
  spec.exec.transport.seed =
      static_cast<std::uint64_t>(cli.get_int("transport-seed", 1));
  spec.exec.transport.drop_p = cli.get_double("drop-p", 0.0);
  spec.exec.transport.dup_p = cli.get_double("dup-p", 0.0);
  spec.exec.transport.latency_max = cli.get_int("latency-max", 1);

  const Graph g = gen_family(family, n, seed);
  const bool tracing = cli.has("trace-out");
  if (tracing) obs::trace_set_enabled(true);
  Timer timer;
  const BuildOutput out = build(g, spec);
  const double wall_s = timer.seconds();

  if (spec.exec.profile) print_profile(out, wall_s);

  if (query_mode) {
    const int rc = run_query(cli, g, spec, out, family, seed, wall_s);
    if (tracing) {
      const int trc = dump_trace(cli.get("trace-out", "trace.json"));
      if (rc == 0) return trc;
    }
    return rc;
  }

  std::cout << describe(spec.algorithm).summary << '\n'
            << "graph:  " << family << ", n = " << g.num_vertices()
            << ", m = " << g.num_edges() << '\n';
  if (!out.params_description.empty()) {
    std::cout << "params: " << out.params_description << '\n';
  }
  std::cout << "|H| = " << out.h().num_edges();
  if (out.has_guarantee) {
    std::cout << "  guarantee: d_H <= " << out.alpha << " * d_G + " << out.beta;
  }
  std::cout << '\n';
  if (out.distributed) {
    std::cout << "congest: rounds = " << out.net.rounds
              << ", messages = " << out.net.messages
              << ", words = " << out.net.words;
    if (spec.exec.transport.model != congest::TransportModel::kIdeal) {
      std::cout << "\ntransport: "
                << congest::transport_model_name(spec.exec.transport.model)
                << " (seed " << spec.exec.transport.seed
                << "), injected: dropped = " << out.transport.dropped
                << ", duplicated = " << out.transport.duplicated
                << ", delayed = " << out.transport.delayed;
    }
    if (!out.local.empty()) {
      // Spanners carry no local-knowledge obligation (their edges are the
      // endpoints' own incident graph edges), so only report the check
      // where it verifies something.
      std::cout << ", endpoints_ok = "
                << (out.endpoints_consistent() ? "yes" : "NO");
    }
    std::cout << '\n';
  }
  std::cout << "built in " << wall_s << "s\n";

  if (tracing) {
    const int trc = dump_trace(cli.get("trace-out", "trace.json"));
    if (trc != 0) return trc;
  }

  if (cli.has("json")) {
    std::ostringstream record;
    record << "{\"driver\": \"usne_run\", \"family\": \"" << family
           << "\", \"n\": " << g.num_vertices()
           << ", \"kappa\": " << spec.params.kappa
           << ", \"eps\": " << spec.params.eps
           << ", \"rho\": " << spec.params.rho << ", \"seed\": " << seed
           << ", \"threads\": " << spec.exec.num_threads << ", \"transport\": \""
           << congest::transport_model_name(spec.exec.transport.model)
           << "\", \"transport_seed\": " << spec.exec.transport.seed
           << ", \"drop_p\": " << spec.exec.transport.drop_p
           << ", \"dup_p\": " << spec.exec.transport.dup_p
           << ", \"latency_max\": " << spec.exec.transport.latency_max
           << ", \"build\": " << out.stats_json()
           << ", \"h_digest\": \"" << h_digest(out.h()) << '"'
           << ", \"peak_rss_mb\": " << format_double(util::peak_rss_mb(), 1)
           << ", \"build_info\": " << util::build_info_json()
           << (spec.exec.profile ? profile_json(out) : std::string())
           << invariants_field() << "}\n";
    const std::string path = cli.get("json", "-");
    if (path == "-") {
      std::cout << record.str();
    } else {
      std::ofstream file(path);
      file << record.str();
      file.flush();
      if (!file) {
        std::cerr << "error: could not write " << path << '\n';
        return 1;
      }
      std::cout << "[wrote " << path << "]\n";
    }
  }
  return 0;
}

}  // namespace
