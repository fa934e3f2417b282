// pipeline_bench — one workload of the end-to-end pipeline benchmark, in a
// process of its own so that peak RSS is that workload's own high-water
// mark. perfbench/run.py builds it, runs it and formats the result line.
//
//   pipeline_bench --workload wire_grouped|congest_build
//                  --graph-seed A --query-seed B --seconds S
//                  [--trace --trace-out FILE] [--tiny] [--corrupt-reference]
//   pipeline_bench --selfcheck
//
// The pipeline runs through the repository's public calls only: generate G
// (graph/), build H (usne::build), answer queries (serve::QueryEngine behind
// net::Server, asked by net::Client on loopback). Each run:
//
//   1. sets up `setups` times: generate G, build H, construct the engine,
//      start the server and connect the clients. setup_s is the fastest
//      setup, since a busy host only ever adds time;
//   2. runs a closed loop of two clients for --seconds and times every
//      request, one 16-query frame. p50_us is over all requests, p99_us
//      the lower decile of the p99s of the run's one-second windows;
//   3. checks, outside the timed region: every frame's answers against a
//      fresh in-process engine, a stretch sample against BFS on G, and on
//      the CONGEST build that both endpoints know every edge. Each mismatch,
//      violation, kBusy/kError reply or client exception counts as a failed
//      operation.
//
// With --trace the benchmark wraps every call into a layer in a span of its
// own (spans.hpp), turns on the CONGEST construction profile, and times the
// SSSP kernel and BFS on G from outside. The spans are written to
// --trace-out when the run ends. The last stdout line is one JSON object.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <malloc.h>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "graph/stream_gen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "path/bfs.hpp"
#include "serve/query_engine.hpp"
#include "serve/stats.hpp"
#include "serve/workload.hpp"
#include "spans.hpp"
#include "util/build_info.hpp"
#include "util/mem.hpp"

namespace {

using perfbench::Clock;
using perfbench::Scope;
using perfbench::Span;
using perfbench::Tracer;
using usne::Dist;
using usne::Vertex;
namespace serve = usne::serve;
namespace net = usne::net;

constexpr int kClients = 2;
constexpr std::size_t kFrameQueries = 16;
// Stretch-sample pairs per run, checked kStretchChunk at a time so that at
// most that many BFS vectors on G are alive at once.
constexpr std::int64_t kStretchPairs = 96;
constexpr std::int64_t kStretchChunk = 8;
constexpr std::size_t kPathSources = 16;
// p99_us is the lower decile, over windows about this long, of each
// window's p99. Load from other tenants of a shared host only adds latency,
// and it comes and goes, raising the tail of the windows it falls in. The
// lower decile ignores it while it spoils up to nine tenths of the windows,
// yet moves with a change that slows the tail of every window.
constexpr double kWindowS = 1.0;

// ---- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  bool congest = false;  // G = gen_family("er"), H = emulator_congest
  Vertex n = 0;
  usne::BuildSpec spec;
  serve::WorkloadSpec mix;  // kind and shape; seeds are set per chunk
  std::int64_t chunk = 0;   // queries per generated stream chunk
  int setups = 5;
};

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  w.setups = tiny ? 1 : 5;
  w.spec.exec.keep_audit_data = false;
  w.spec.params.eps = 0.25;
  if (name == "congest_build") {
    w.congest = true;
    w.n = tiny ? Vertex{1} << 8 : Vertex{1} << 14;
    w.spec.algorithm = "emulator_congest";
    w.spec.params.kappa = 4;
    w.spec.params.rho = 0.45;
    w.spec.exec.num_threads = 2;
  } else if (name == "wire_grouped") {
    w.n = tiny ? Vertex{1} << 10 : Vertex{1} << 17;
    w.spec.algorithm = "emulator_fast";
    w.spec.params.kappa = 8;
    w.spec.params.rho = 0.3;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (wire_grouped | congest_build)");
  }
  // Both are served over loopback in runs of 8192 queries per source:
  // under 1 frame in 500 holds a cache miss, so the wire, not the SSSP
  // kernel, sets the query figures. With one frame in flight per client the
  // server's queue never reaches batch_max, so each frame also waits out
  // the 500 us flush window: most of p50_us is that wait.
  w.mix.kind = serve::WorkloadKind::kGrouped;
  w.mix.group_size = tiny ? 64 : 8192;
  w.chunk = w.mix.group_size * 8;
  return w;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One client's endless query stream, expanded chunk by chunk with
/// serve::generate_workload from seeds derived from (query seed, client,
/// chunk). A second stream with the same arguments replays the same
/// queries, so the checks need no copy of what was sent.
class QueryStream {
 public:
  QueryStream(const Workload& w, std::uint64_t query_seed, int client)
      : w_(w), seed_(splitmix64(query_seed) ^ splitmix64(client + 1)) {}

  /// The next k queries; k must divide the chunk size.
  std::span<const serve::Query> take(std::size_t k = kFrameQueries) {
    if (pos_ == chunk_.size()) refill();
    const std::span<const serve::Query> out(chunk_.data() + pos_, k);
    pos_ += k;
    return out;
  }

  const serve::Query& next() { return take(1).front(); }

 private:
  void refill() {
    serve::WorkloadSpec spec = w_.mix;
    spec.num_queries = w_.chunk;
    spec.seed = splitmix64(seed_ + static_cast<std::uint64_t>(chunks_++));
    chunk_ = serve::generate_workload(w_.n, spec);
    pos_ = 0;
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::int64_t chunks_ = 0;
  std::vector<serve::Query> chunk_;
  std::size_t pos_ = 0;
};

// ---- statistics ---------------------------------------------------------------

/// Nearest-rank percentile of exact samples: the ceil(p * N)-th smallest.
/// `beyond` receives how many samples lie above that rank.
double percentile(std::vector<double> samples, double p,
                  std::int64_t* beyond = nullptr) {
  if (samples.empty()) return 0;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  if (beyond != nullptr) *beyond = static_cast<std::int64_t>(n - rank);
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

/// The lower decile over windows of each window's p99; empty windows are
/// skipped. `beyond` receives the fewest samples beyond any window's p99.
double quiet_window_p99(std::vector<std::vector<double>> windows,
                        std::int64_t* beyond) {
  std::vector<double> p99;
  *beyond = 0;
  for (std::vector<double>& samples : windows) {
    if (samples.empty()) continue;
    std::int64_t b = 0;
    p99.push_back(percentile(std::move(samples), 0.99, &b));
    *beyond = p99.size() == 1 ? b : std::min(*beyond, b);
  }
  return percentile(std::move(p99), 0.10);
}

double fastest(const std::vector<double>& samples) {
  return samples.empty() ? 0 : *std::min_element(samples.begin(), samples.end());
}

std::uint64_t fnv(std::span<const Dist> answers) {
  std::uint64_t h = serve::kChecksumSeed;
  for (const Dist d : answers) h = serve::checksum_accumulate(h, d);
  return h;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- the pipeline -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t graph_seed = 1;
  std::uint64_t query_seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool tiny = false;
  bool corrupt_reference = false;
};

/// Everything one setup produced. Members are destroyed in reverse order:
/// clients disconnect before the server stops, the server before the engine.
struct Pipeline {
  usne::Graph g;
  usne::BuildOutput built;
  std::shared_ptr<serve::QueryEngine> engine;
  std::unique_ptr<net::Server> server;
  std::vector<net::Client> clients;

  double setup_s = 0;
  double gen_s = 0;
  double build_s = 0;
  double init_s = 0;
  double net_s = 0;
};

std::unique_ptr<Pipeline> set_up(const Workload& w, const Options& o,
                                 Tracer& tracer) {
  auto p = std::make_unique<Pipeline>();
  Scope setup(tracer, "bench.setup", 0);
  const Clock::time_point t0 = Clock::now();
  {
    Scope s(tracer, "graph.gen", setup.id());
    p->g = w.congest ? usne::gen_family("er", w.n, o.graph_seed)
                     : usne::stream_connected_gnm(w.n, std::int64_t{4} * w.n,
                                                  o.graph_seed);
  }
  const Clock::time_point t1 = Clock::now();
  {
    Scope s(tracer, "core.build", setup.id());
    usne::BuildSpec spec = w.spec;
    spec.exec.profile = o.trace && w.congest;
    p->built = usne::build(p->g, spec);
  }
  const Clock::time_point t2 = Clock::now();
  {
    Scope s(tracer, "serve.init", setup.id());
    p->engine = std::make_shared<serve::QueryEngine>(p->built);
  }
  const Clock::time_point t3 = Clock::now();
  {
    Scope s(tracer, "net.start", setup.id());
    p->server = std::make_unique<net::Server>(p->engine, net::ServerOptions{});
    p->server->start();
  }
  {
    Scope s(tracer, "net.connect", setup.id());
    p->clients.resize(kClients);
    for (net::Client& c : p->clients) c.connect("127.0.0.1", p->server->port());
  }
  const Clock::time_point t4 = Clock::now();
  p->gen_s = seconds_between(t0, t1);
  p->build_s = seconds_between(t1, t2);
  p->init_s = seconds_between(t2, t3);
  p->net_s = seconds_between(t3, t4);
  p->setup_s = seconds_between(t0, t4);
  return p;
}

/// What one client thread did in the query phase.
struct ClientLog {
  std::vector<double> latency_us;  // one per request
  std::vector<int> window;         // the window each request started in
  // The FNV checksum of every frame's answers; `ok` is parallel.
  std::vector<std::uint64_t> answers;
  std::vector<char> ok;
  std::int64_t requests = 0;
  std::int64_t queries = 0;
  std::int64_t failed = 0;
  std::string error;
  Clock::time_point end;
  std::vector<Span> spans;
};

struct Phase {
  std::vector<ClientLog> logs;
  int windows = 1;  // equal windows of the --seconds, each about kWindowS
  double wall_s = 0;
};

Phase run_queries(const Workload& w, const Options& o, Pipeline& p,
                  Tracer& tracer) {
  Phase phase;
  phase.logs.resize(kClients);
  phase.windows = std::max(1, static_cast<int>(o.seconds / kWindowS));
  const double window_s = o.seconds / phase.windows;
  Scope phase_span(tracer, "bench.query_phase", 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(o.seconds));
  const auto client_loop = [&](int c) {
    ClientLog& log = phase.logs[static_cast<std::size_t>(c)];
    QueryStream stream(w, o.query_seed, c);
    const std::size_t expect = static_cast<std::size_t>(4000.0 * o.seconds);
    log.latency_us.reserve(expect);
    log.window.reserve(expect);
    log.answers.reserve(expect);
    log.ok.reserve(expect);
    if (tracer.enabled()) log.spans.reserve(expect + 1);
    Scope client_span(tracer, "bench.client", phase_span.id(), &log.spans, c + 1);
    const std::int64_t request_base = std::int64_t{c} << 40;
    for (;;) {
      const std::span<const serve::Query> frame = stream.take();
      const Clock::time_point t0 = Clock::now();
      if (t0 >= deadline) break;
      bool ok = true;
      std::uint64_t answer = 0;
      {
        Scope req(tracer, "net.request", client_span.id(), &log.spans, c + 1,
                  request_base + log.requests);
        try {
          answer = fnv(p.clients[static_cast<std::size_t>(c)].query_batch(frame));
        } catch (const net::RpcError&) {
          ok = false;  // kBusy / kError reply
        } catch (const std::exception& e) {
          ok = false;
          log.error = e.what();
        }
      }
      const Clock::time_point t1 = Clock::now();
      log.latency_us.push_back(micros(t0, t1));
      log.window.push_back(std::min(
          phase.windows - 1,
          static_cast<int>(seconds_between(start, t0) / window_s)));
      log.answers.push_back(answer);
      log.ok.push_back(ok ? 1 : 0);
      log.requests += 1;
      log.queries += static_cast<std::int64_t>(frame.size());
      if (!ok) log.failed += 1;
      log.end = t1;
      if (!log.error.empty()) break;  // the connection is gone
    }
  };
  {
    // jthread joins when destroyed, also when starting a later one throws.
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  }
  Clock::time_point end = start;
  for (ClientLog& log : phase.logs) {
    end = std::max(end, log.end);
    tracer.merge(log.spans);
  }
  phase.wall_s = seconds_between(start, end);
  return phase;
}

// ---- checks -----------------------------------------------------------------

/// A new engine over the same H, sharing no cache or memo with `e`.
std::unique_ptr<serve::QueryEngine> fresh_copy(const serve::QueryEngine& e,
                                               serve::ServeOptions options = {}) {
  return std::make_unique<serve::QueryEngine>(e.emulator(), e.alpha(),
                                              e.beta(), options);
}

/// With the cache off every query runs the kernel: what path.sssp_us times.
std::unique_ptr<serve::QueryEngine> uncached_copy(const serve::QueryEngine& e) {
  serve::ServeOptions options;
  options.cache_mb = 0;
  return fresh_copy(e, options);
}

struct Checks {
  std::int64_t mismatches = 0;
  std::uint64_t checksum = serve::kChecksumSeed;  // over the checked answers
  std::vector<double> engine_us;  // QueryEngine::serve per replayed frame
  serve::StretchSample stretch;
  std::vector<Vertex> probe_sources;
  bool endpoints_ok = true;
};

/// Every frame replayed through QueryEngine::serve on a fresh engine, so a
/// wrong vector kept in the serving engine's cache cannot vouch for itself.
/// --corrupt-reference flips every reference value, which must turn each
/// compared request into a failure.
void check_answers(const Workload& w, const Options& o, const Phase& phase,
                   const serve::QueryEngine& engine, Checks& out) {
  const std::unique_ptr<serve::QueryEngine> reference = fresh_copy(engine);
  for (int c = 0; c < kClients; ++c) {
    const ClientLog& log = phase.logs[static_cast<std::size_t>(c)];
    QueryStream stream(w, o.query_seed, c);
    for (std::size_t i = 0; i < log.answers.size(); ++i) {
      const std::span<const serve::Query> frame = stream.take();
      if (!log.ok[i]) continue;  // already counted as failed
      const Clock::time_point t0 = Clock::now();
      const serve::BatchResult r = reference->serve(frame, 1);
      out.engine_us.push_back(micros(t0, Clock::now()));
      std::uint64_t expect = fnv(r.answers);
      if (o.corrupt_reference) expect ^= 1;
      out.checksum = serve::checksum_accumulate(
          out.checksum, static_cast<Dist>(log.answers[i]));
      if (log.answers[i] != expect) ++out.mismatches;
    }
  }
}

/// Stretch sample against BFS on G over queries actually served, spread
/// evenly over each client's stream.
void check_stretch(const Workload& w, const Options& o, const Phase& phase,
                   const Pipeline& p, Checks& out) {
  std::vector<serve::Query> picks;
  for (int c = 0; c < kClients; ++c) {
    const std::int64_t served = phase.logs[static_cast<std::size_t>(c)].queries;
    const std::int64_t want = kStretchPairs / kClients;
    const std::int64_t stride = std::max<std::int64_t>(1, served / want);
    QueryStream stream(w, o.query_seed, c);
    std::int64_t taken = 0;
    for (std::int64_t i = 0; i < served && taken < want; ++i) {
      const serve::Query& q = stream.next();
      if (i % stride != 0 || q.all || q.u == q.v) continue;
      picks.push_back(q);
      ++taken;
    }
  }
  serve::StretchSample& s = out.stretch;
  for (std::size_t i = 0; i < picks.size(); i += kStretchChunk) {
    const std::size_t k =
        std::min<std::size_t>(kStretchChunk, picks.size() - i);
    const serve::StretchSample part = serve::sample_query_stretch(
        p.g, *p.engine, std::span<const serve::Query>(picks.data() + i, k),
        static_cast<std::int64_t>(k));
    s.pairs += part.pairs;
    s.violations += part.violations;
    s.underruns += part.underruns;
    s.max_mult = std::max(s.max_mult, part.max_mult);
    s.max_additive = std::max(s.max_additive, part.max_additive);
  }
  for (std::size_t i = 0; i < picks.size() && i < kPathSources; ++i) {
    out.probe_sources.push_back(picks[i].u);
  }
}

Checks run_checks(const Workload& w, const Options& o, const Phase& phase,
                  const Pipeline& p, Tracer& tracer) {
  Checks out;
  Scope check(tracer, "bench.check", 0);
  {
    Scope s(tracer, "serve.reference", check.id());
    check_answers(w, o, phase, *p.engine, out);
  }
  {
    Scope s(tracer, "eval.stretch", check.id());
    check_stretch(w, o, phase, p, out);
  }
  if (w.congest) {
    Scope s(tracer, "core.endpoints_check", check.id());
    out.endpoints_ok = p.built.endpoints_consistent();
  }
  return out;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string num(double v) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out << (first ? "" : ", ") << "\"" << name << "\": [" << num(metric.value)
        << ", \"" << metric.unit << "\"]";
    first = false;
  }
  out << "}";
  return out.str();
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

/// Traced only: the SSSP kernel on H (an engine with the cache off, so it
/// times whatever kernel the engine dispatches) and BFS on G, from the same
/// sources, timed from outside.
void probe_path(const Pipeline& p, const std::vector<Vertex>& sources,
                Tracer& tracer, Metrics& layers) {
  Scope probe(tracer, "bench.path_probe", 0);
  const std::unique_ptr<serve::QueryEngine> kernel = uncached_copy(*p.engine);
  std::vector<double> sssp_us;
  std::vector<double> bfs_us;
  for (const Vertex s : sources) {
    {
      Scope span(tracer, "path.sssp_h", probe.id());
      const Clock::time_point t0 = Clock::now();
      const serve::SsspResult d = kernel->query_all(s);
      sssp_us.push_back(micros(t0, Clock::now()));
    }
    Scope span(tracer, "path.bfs_g", probe.id());
    const Clock::time_point t0 = Clock::now();
    const std::vector<Dist> d = usne::bfs_distances(p.g, s);
    bfs_us.push_back(micros(t0, Clock::now()));
  }
  const double sssp = median(sssp_us);
  const double bfs = median(bfs_us);
  const double arcs = 2.0 * static_cast<double>(kernel->emulator().num_edges());
  layers["path.sssp_us"] = {sssp, "us"};
  layers["path.sssp_arcs_per_s"] = {ratio(arcs, sssp * 1e-6), "1/s"};
  layers["path.bfs_g_us"] = {bfs, "us"};
  layers["path.g_over_h"] = {ratio(bfs, sssp), "ratio"};
}

/// Traced CONGEST builds: the kept build's construction profile.
void profile_metrics(const Pipeline& p, Metrics& layers) {
  usne::congest::StageTimes total;
  double detect_s = 0;
  for (const usne::congest::PhaseProfileEntry& e : p.built.profile) {
    total += e.times;
    layers["congest.task." + e.label + ".wall_s"] = {e.times.wall_s, "s"};
    if (e.label.ends_with(".detect")) detect_s += e.times.wall_s;
  }
  layers["congest.stage.deliver_s"] = {total.deliver_s, "s"};
  layers["congest.stage.compute_s"] = {total.compute_s, "s"};
  layers["congest.stage.replay_s"] = {total.replay_s, "s"};
  layers["congest.stage.end_round_s"] = {total.end_round_s, "s"};
  layers["congest.stage.other_s"] = {total.init_s + total.drain_s, "s"};
  layers["congest.detect_share"] = {ratio(detect_s, total.wall_s), "fraction"};
  layers["congest.profile_coverage"] = {ratio(total.wall_s, p.build_s), "fraction"};
}

int run_workload(const Options& o) {
  const Workload w = make_workload(o.workload, o.tiny);
  Tracer tracer(o.trace);
  Metrics layers;

  // 1. Set up `setups` times and keep the last. setup_s is the fastest
  // setup; the per-layer setup times are medians over all of them.
  std::unique_ptr<Pipeline> p;
  std::vector<double> setup_s, gen_s, build_s, init_s, net_s;
  double scheduler_s = 0;  // profiled CONGEST scheduler wall, all setups
  for (int i = 0; i < w.setups; ++i) {
    if (p) {
      // Hand the previous setup's heap back to the OS, so that each setup,
      // and the query phase after the last one, starts from the heap a
      // single setup would leave: peak RSS is then what one pipeline needs.
      p.reset();
      malloc_trim(0);
    }
    p = set_up(w, o, tracer);
    setup_s.push_back(p->setup_s);
    gen_s.push_back(p->gen_s);
    build_s.push_back(p->build_s);
    init_s.push_back(p->init_s);
    net_s.push_back(p->net_s);
    for (const usne::congest::PhaseProfileEntry& e : p->built.profile) {
      scheduler_s += e.times.wall_s;
    }
  }

  // 2. The timed query phase.
  auto& queue_wait = usne::obs::histogram("usne_net_queue_wait_us");
  queue_wait.reset();
  const serve::CacheStats cache0 = p->engine->cache_stats();
  const Phase phase = run_queries(w, o, *p, tracer);
  const serve::CacheStats cache1 = p->engine->cache_stats();
  const double peak_rss_mb = usne::util::peak_rss_mb();
  layers["net.queue_wait_p50_us"] = {
      static_cast<double>(queue_wait.percentile(0.5)), "us"};
  p->clients.clear();
  p->server->stop();
  const net::ServerStats st = p->server->stats();
  layers["net.busy"] = {static_cast<double>(st.rejected_busy), "count"};
  layers["net.errors"] = {
      static_cast<double>(st.rejected_error + st.protocol_errors), "count"};

  std::vector<double> latency;
  std::vector<std::vector<double>> by_window(
      static_cast<std::size_t>(phase.windows));
  std::int64_t queries = 0;
  std::int64_t requests = 0;
  std::int64_t request_failures = 0;
  for (const ClientLog& log : phase.logs) {
    latency.insert(latency.end(), log.latency_us.begin(), log.latency_us.end());
    for (std::size_t i = 0; i < log.latency_us.size(); ++i) {
      by_window[static_cast<std::size_t>(log.window[i])].push_back(
          log.latency_us[i]);
    }
    queries += log.queries;
    requests += log.requests;
    request_failures += log.failed;
    if (!log.error.empty()) std::cerr << "client error: " << log.error << '\n';
  }
  const double p50_us = percentile(latency, 0.50);
  std::cerr << "p99 per window (us):";
  for (const std::vector<double>& samples : by_window) {
    std::cerr << ' ' << std::lround(percentile(samples, 0.99));
  }
  std::cerr << "; over all requests " << percentile(latency, 0.99) << '\n';
  std::int64_t p99_beyond = 0;
  const double p99_us = quiet_window_p99(std::move(by_window), &p99_beyond);
  if (p99_beyond < 10) {
    std::cerr << "warning: only " << p99_beyond
              << " samples beyond a window's p99; lengthen --seconds\n";
  }

  // 3. Checks, outside the timed region. attempted counts every request,
  // every stretch pair and the endpoint check; failed counts what went
  // wrong in any of them.
  const Checks checks = run_checks(w, o, phase, *p, tracer);
  const serve::StretchSample& stretch = checks.stretch;
  const std::int64_t attempted =
      requests + stretch.pairs + (w.congest ? 1 : 0);
  const std::int64_t failed = request_failures + checks.mismatches +
                              stretch.violations + stretch.underruns +
                              (checks.endpoints_ok ? 0 : 1);
  if (o.trace) probe_path(*p, checks.probe_sources, tracer, layers);

  // Per-layer metrics.
  const auto stat = [&](const char* key) {
    const auto it = p->built.stats.find(key);
    return it == p->built.stats.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double n = static_cast<double>(p->g.num_vertices());
  const double h_edges = static_cast<double>(p->built.h().num_edges());
  layers["graph.gen_s"] = {median(gen_s), "s"};
  layers["graph.edges"] = {static_cast<double>(p->g.num_edges()), "count"};
  layers["core.build_s"] = {median(build_s), "s"};
  layers["core.h_edges"] = {h_edges, "count"};
  layers["core.h_edges_per_vertex"] = {h_edges / n, "edges/vertex"};
  layers["core.phases"] = {stat("phases"), "count"};
  layers["core.interconnect_edges"] = {stat("interconnect_edges"), "count"};
  layers["core.supercluster_edges"] = {stat("supercluster_edges"), "count"};
  if (w.congest) {
    const usne::congest::NetworkStats& net = p->built.net;
    layers["congest.rounds"] = {static_cast<double>(net.rounds), "count"};
    layers["congest.messages"] = {static_cast<double>(net.messages), "count"};
    layers["congest.words"] = {static_cast<double>(net.words), "count"};
    layers["congest.msgs_per_s"] = {
        ratio(static_cast<double>(net.messages), p->build_s), "1/s"};
  }
  const auto delta = [&](std::int64_t serve::CacheStats::*field) {
    return static_cast<double>(cache1.*field - cache0.*field);
  };
  const double hits = delta(&serve::CacheStats::hits);
  layers["serve.init_s"] = {median(init_s), "s"};
  layers["serve.hit_ratio"] = {
      ratio(hits, hits + delta(&serve::CacheStats::misses)), "fraction"};
  layers["serve.sssp_runs"] = {delta(&serve::CacheStats::sssp_runs), "count"};
  layers["serve.evictions"] = {delta(&serve::CacheStats::evictions), "count"};
  layers["serve.coalesced"] = {delta(&serve::CacheStats::coalesced), "count"};
  const double engine_us = median(checks.engine_us);
  layers["net.start_s"] = {median(net_s), "s"};
  layers["net.engine_us"] = {engine_us, "us"};
  layers["net.outside_engine_share"] = {1.0 - ratio(engine_us, p50_us),
                                        "fraction"};
  layers["eval.pairs"] = {static_cast<double>(stretch.pairs), "count"};
  layers["eval.violations"] = {static_cast<double>(stretch.violations), "count"};
  layers["eval.underruns"] = {static_cast<double>(stretch.underruns), "count"};
  layers["eval.max_additive"] = {static_cast<double>(stretch.max_additive), "hops"};
  layers["eval.max_mult"] = {stretch.max_mult, "ratio"};
  layers["bench.requests"] = {static_cast<double>(requests), "count"};
  layers["bench.p99_beyond"] = {static_cast<double>(p99_beyond), "count"};

  if (o.trace) {
    if (w.congest) profile_metrics(*p, layers);
    const perfbench::SpanSummary sum = perfbench::summarize(tracer.spans());
    for (const auto& [layer, self] : sum.self_s) {
      layers[layer + ".self_s"] = {self, "s"};
    }
    if (w.congest) {
      // The scheduler runs inside usne::build; its profiled wall time is
      // the congest layer's share of the core.build spans' self time.
      layers["core.self_s"].value -= scheduler_s;
      layers["congest.self_s"] = {scheduler_s, "s"};
    }
    layers["bench.span_coverage"] = {sum.setup_coverage, "fraction"};
    layers["bench.request_coverage"] = {sum.request_coverage, "fraction"};
    layers["bench.spans"] = {static_cast<double>(tracer.spans().size()), "count"};
    if (!o.trace_out.empty()) {
      std::ofstream file(o.trace_out);
      file << perfbench::chrome_json(tracer.spans());
      file.flush();
      if (!file) std::cerr << "warning: could not write " << o.trace_out << '\n';
    }
  }

  const Metrics e2e = {
      {"setup_s", {fastest(setup_s), "s"}},
      {"qps", {ratio(static_cast<double>(queries), phase.wall_s), "queries/s"}},
      {"p50_us", {p50_us, "us"}},
      {"p99_us", {p99_us, "us"}},
      {"peak_rss_mb", {peak_rss_mb, "MiB"}},
      {"h_edges_per_vertex", {h_edges / n, "edges/vertex"}},
      {"error_rate",
       {ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        "fraction"}},
  };
  const bool correct = failed == 0;
  std::cerr << "[" << w.name << "] " << requests << " requests, " << queries
            << " queries in " << phase.wall_s << " s; reference mismatches "
            << checks.mismatches << ", stretch " << stretch.stats_json()
            << (checks.endpoints_ok ? "" : ", ENDPOINTS INCONSISTENT")
            << "; failed " << failed << " of " << attempted << '\n';

  std::ostringstream out;
  out << "{\"workload\": \"" << w.name << "\", \"graph_seed\": " << o.graph_seed
      << ", \"query_seed\": " << o.query_seed
      << ", \"seconds\": " << num(o.seconds)
      << ", \"traced\": " << (o.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_info\": " << usne::util::build_info_json()
      << ", \"n\": " << p->g.num_vertices()
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"requests\": " << requests << ", \"queries\": " << queries
      << ", \"windows\": " << phase.windows
      << ", \"checksum\": \"" << checks.checksum << "\", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out << (i > 0 ? ", " : "") << num(setup_s[i]);
  }
  out << "], \"e2e\": " << metrics_json(e2e)
      << ", \"layers\": " << metrics_json(layers) << "}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 3;
}

// ---- self-check -----------------------------------------------------------------

int selfcheck() {
  int bad = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "selfcheck FAILED: " << what << '\n';
      ++bad;
    }
  };
  std::vector<double> ramp;
  for (int i = 1000; i >= 1; --i) ramp.push_back(i);
  std::int64_t beyond = -1;
  expect(percentile(ramp, 0.50) == 500, "p50 of 1..1000 is 500");
  expect(percentile(ramp, 0.99, &beyond) == 990, "p99 of 1..1000 is 990");
  expect(beyond == 10, "ten samples beyond p99 of 1..1000");
  expect(percentile({3, 1, 2}, 0.50) == 2, "p50 of {3, 1, 2} is 2");
  expect(percentile({3, 1, 2}, 0.99) == 3, "p99 of {3, 1, 2} is 3");
  expect(percentile({7}, 0.99) == 7, "p99 of one sample is that sample");
  expect(percentile({}, 0.5) == 0, "empty samples give 0");
  // Window w holds (w + 1) * {1..200}, so its p99 is 198 * (w + 1) with 2
  // samples beyond, except that a burst lifts window 0's p99 to 1e6; the
  // last window is empty. Lower decile of the eleven p99s: the 2nd, 594.
  std::vector<std::vector<double>> windows(12);
  for (int w = 0; w < 11; ++w) {
    for (int i = 1; i <= 200; ++i) windows[w].push_back((w + 1) * i);
  }
  for (int i = 0; i < 20; ++i) windows[0][i] = 1e6;
  expect(quiet_window_p99(windows, &beyond) == 594, "quiet window p99 is 594");
  expect(beyond == 2, "two samples beyond each window's p99");

  // Spans: a 100 ns parent with children covering [10, 40) and [30, 60).
  std::vector<Span> spans = {
      {"bench.setup", 1, 0, -1, 0, 100, 0},
      {"graph.gen", 2, 1, -1, 10, 40, 0},
      {"core.build", 3, 1, -1, 30, 60, 0},
      {"bench.client", 4, 0, -1, 0, 100, 1},
      {"serve.query", 5, 4, 0, 0, 50, 1},
      {"serve.query", 6, 4, 1, 50, 98, 1},
  };
  const perfbench::SpanSummary sum = perfbench::summarize(spans);
  expect(std::abs(sum.setup_coverage - 0.5) < 1e-12, "setup coverage 50/100");
  expect(std::abs(sum.request_coverage - 0.98) < 1e-12, "request coverage 98/100");
  expect(std::abs(sum.self_s.at("bench") - 52e-9) < 1e-18, "bench self time 50 + 2 ns");
  expect(std::abs(sum.self_s.at("core") - 30e-9) < 1e-18, "core self time 30 ns");
  std::cerr << "selfcheck: " << (bad == 0 ? "ok" : "FAILED") << '\n';
  return bad == 0 ? 0 : 1;
}

int parse_and_run(int argc, char** argv) {
  Options o;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--graph-seed") o.graph_seed = std::stoull(value());
    else if (a == "--query-seed") o.query_seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = true;
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--corrupt-reference") o.corrupt_reference = true;
    else if (a == "--selfcheck") self = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (self) return selfcheck();
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return run_workload(o);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return parse_and_run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
