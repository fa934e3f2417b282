#pragma once

// Umbrella header for the USNE library — ultra-sparse near-additive
// emulators (Elkin & Matar, PODC 2021) and everything around them.
//
// Typical entry points:
//   * usne::build(g, BuildSpec)    — the one way to build an emulator or
//     spanner (api/build.hpp): Algorithm 1 (§2), the CONGEST and fast
//     centralized emulators (§3), the §4 spanners and the baselines;
//     usne::algorithms() enumerates them, usne::describe() documents one
//   * CentralizedParams / DistributedParams / SpannerParams  (core/params.hpp)
//     — the schedules and computed (alpha, beta) guarantees behind them
//   * serve::QueryEngine           — concurrent batched distance queries on
//     any BuildOutput (sharded SSSP cache, reproducible workloads)
//   * net::Server / net::Client    — TCP serving daemon around the engine
//     (usne_served) and its blocking wire client (usne_loadgen)
//   * obs::Registry / USNE_TRACE_SPAN — process-global metrics (Prometheus/
//     JSON export) and span tracing (Chrome trace-event dumps)
//   * evaluate_stretch_exact / audit_all — verification utilities
//
// Include this for convenience, or the individual headers for faster
// builds.

#include "api/build.hpp"
#include "baselines/en17_emulator.hpp"
#include "baselines/ep01_emulator.hpp"
#include "baselines/tz06_emulator.hpp"
#include "congest/bfs_forest.hpp"
#include "congest/detect.hpp"
#include "congest/engine.hpp"
#include "congest/flood.hpp"
#include "congest/network.hpp"
#include "congest/ruling_set.hpp"
#include "congest/transport.hpp"
#include "core/audit.hpp"
#include "core/cluster.hpp"
#include "core/emulator_centralized.hpp"
#include "core/emulator_distributed.hpp"
#include "core/emulator_fast.hpp"
#include "core/params.hpp"
#include "core/ruling_central.hpp"
#include "core/spanner.hpp"
#include "core/spanner_distributed.hpp"
#include "eval/metrics.hpp"
#include "eval/stretch.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/weighted_graph.hpp"
#include "hopset/hopset.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "path/apsp.hpp"
#include "path/bfs.hpp"
#include "path/dijkstra.hpp"
#include "path/source_detection.hpp"
#include "path/sssp_kernel.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/query_engine.hpp"
#include "serve/stats.hpp"
#include "serve/workload.hpp"
#include "util/build_info.hpp"
#include "util/cli.hpp"
#include "util/invariant.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
