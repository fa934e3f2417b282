#pragma once

// usne::net::Server — the network serving daemon behind `usne_served`.
//
// A long-running TCP front-end for serve::QueryEngine. Thread model:
//
//  * One I/O thread runs an epoll event loop over all client sockets and
//    decodes frames (net/protocol.hpp). It answers PING, STATS and METRICS
//    itself. When the current engine snapshot is structural
//    (QueryEngine::kernel(): point queries cost nanoseconds), it also
//    answers PAIR frames and BATCH frames holding no single-source query
//    itself, through the same answer routine the workers run: such a frame
//    never meets the queue, a worker or the wake pipe.
//  * Every other engine-bound frame (SINGLE_SOURCE, a batch holding one,
//    any frame on a Dial-fallback engine) is admitted into a FIFO queue. N
//    worker threads each pop the front request as soon as one is queued
//    and answer it with one engine call against an atomically swappable
//    engine snapshot. Their responses flow back to the I/O thread through
//    a response queue plus a wake pipe, so workers never touch a socket.
//
// Admission control / backpressure: a queued request that would take the
// admitted count past max_queue, or its connection's past
// max_inflight_per_conn, is answered immediately with kBusy — bounded
// memory, explicit signal, client retries. Both counts drop only when the
// I/O thread routes the reply, so admission never races the workers.
// Frames answered on the I/O thread are never queued, so they bypass
// admission, as do PING, STATS and METRICS: health and observability stay
// responsive exactly when the daemon is saturated.
//
// Graceful reload: reload(new_engine) flips a shared_ptr behind a mutex.
// Every request is answered on one snapshot of the pointer, so a request
// in progress finishes on the engine it started on and later requests pick
// up the new one — zero dropped requests, no socket churn. Engines with a different
// vertex count are rejected (queued queries must stay answerable).
//
// Observability: per-thread lock-free serve::LatencyHistograms (one per
// worker plus the I/O thread's, merged on demand), cumulative counters,
// the engine's kernel report, and QueryEngine::cache_stats_delta for
// per-interval serving rates — all surfaced by the STATS request and
// stats_json(). A started server additionally registers a collector with
// the global obs::Registry mirroring ServerStats as usne_net_* series, and
// the METRICS request returns the registry's Prometheus text page (answered
// inline by the I/O thread, like STATS). Request-lifecycle trace spans
// (net.read / net.queue_wait / net.engine / net.write) and one sample per
// answered request in each hop histogram cover admission to socket write:
// usne_net_queue_wait_us (admitted to popped; 0 for a frame answered on
// the I/O thread) + usne_net_engine_us (popped to reply built) =
// usne_net_request_latency_us, then usne_net_reply_wait_us (reply built to
// handed to send(2)).
//
// Request conservation (inv::Category::kDaemon): every well-framed request
// is eventually answered, rejected, or in flight —
//
//   accepted == answered + rejected_busy + rejected_error + in_flight
//
// holds at every counter snapshot, and in_flight == 0 once stop() has
// drained. Header-level garbage (bad magic/version/checksum/oversized)
// never enters the ledger: it is counted in protocol_errors and the
// connection is closed without engine involvement.

#include <cstdint>
#include <memory>
#include <string>

#include "serve/query_engine.hpp"

namespace usne::net {

struct ServerOptions {
  /// Listen address. Tests and check.sh bind loopback.
  std::string host = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;

  /// Worker threads answering queued requests (>= 1).
  int workers = 2;

  /// Admission bound: queued requests admitted whose reply the I/O thread
  /// has not routed yet (queued, being answered, or answered and waiting
  /// for the I/O thread). At the bound, new queued requests get kBusy.
  int max_queue = 1024;

  /// Per-connection cap on admitted-but-unanswered requests; the second
  /// backpressure lever (one greedy pipelining client cannot monopolize
  /// the queue).
  int max_inflight_per_conn = 256;

  /// Close connections idle (no traffic, nothing in flight) longer than
  /// this. <= 0 disables idle harvesting.
  std::int64_t idle_timeout_ms = 30000;

  /// Per-connection write-buffer cap; a client that stops reading while
  /// responses pile past this is closed rather than buffered forever.
  std::size_t max_write_buffer = 8u << 20;
};

/// Monotone counter snapshot (plus two instantaneous gauges: queue_depth,
/// in_flight). See the conservation law in the header comment.
struct ServerStats {
  std::int64_t accepted_connections = 0;
  std::int64_t closed_connections = 0;
  std::int64_t accepted_requests = 0;  ///< well-framed requests, incl. BUSY
  std::int64_t answered_requests = 0;  ///< successful replies produced
  std::int64_t rejected_busy = 0;      ///< admission-control kBusy replies
  std::int64_t rejected_error = 0;     ///< kError replies (malformed payload…)
  std::int64_t protocol_errors = 0;    ///< framing-level garbage; conn closed
  std::int64_t idle_closed = 0;        ///< connections harvested by the timeout
  std::int64_t reloads = 0;            ///< successful engine swaps
  std::int64_t queue_depth = 0;        ///< gauge: queued, not yet popped
  std::int64_t in_flight = 0;          ///< gauge: admitted, not yet answered
};

/// The daemon. Construct with an engine, start(), serve until stop().
/// All public methods are thread-safe; stop() is idempotent and also runs
/// from the destructor.
class Server {
 public:
  Server(std::shared_ptr<serve::QueryEngine> engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the I/O + worker threads. Throws
  /// std::runtime_error if the socket cannot be set up.
  void start();

  /// Graceful shutdown: stop accepting, let workers drain the queue,
  /// flush every write buffer (bounded by a ~5 s hard deadline), then
  /// join all threads and audit the conservation ledger.
  void stop();

  /// Actual bound port (after start(); resolves port 0).
  std::uint16_t port() const noexcept;

  /// Swaps the serving engine (see header comment). Throws
  /// std::invalid_argument if `engine` is null or its vertex count
  /// differs from the current engine's.
  void reload(std::shared_ptr<serve::QueryEngine> engine);

  /// Current engine snapshot (what the next request will be served by).
  std::shared_ptr<serve::QueryEngine> engine() const;

  ServerStats stats() const;

  /// One-line JSON: ServerStats counters, merged latency histogram,
  /// cumulative serving stats, per-interval serving stats
  /// (cache_stats_delta), the engine's kernel (QueryEngine::kernel), the
  /// binary's build_info block, uptime_s since start(), and — when audits
  /// are enabled — the invariant counters. What the STATS request returns
  /// and `usne_served --json` embeds at shutdown.
  std::string stats_json() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace usne::net
