#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef __linux__
#error "net/server.cpp targets Linux: its event loop is built on epoll"
#endif
#include <sys/epoll.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/latency_histogram.hpp"
#include "util/build_info.hpp"
#include "util/invariant.hpp"
#include "util/timer.hpp"

namespace usne::net {
namespace {

using Clock = MonoClock;

constexpr std::uint64_t kListenKey = 0;
constexpr std::uint64_t kWakeKey = 1;
constexpr std::uint64_t kFirstConnId = 2;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int fdflags = ::fcntl(fd, F_GETFD, 0);
  if (fdflags >= 0) ::fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC);
}

// One readiness notification from the poller.
struct PollEvent {
  std::uint64_t key = 0;
  bool readable = false;
  bool writable = false;
  bool hangup = false;
};

/// The event loop's readiness source: epoll, O(ready) per wait.
class Poller {
 public:
  Poller() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~Poller() {
    if (fd_ >= 0) ::close(fd_);
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool ok() const noexcept { return fd_ >= 0; }

  void add(int fd, std::uint64_t key, bool rd, bool wr) {
    epoll_event ev{};
    ev.events = mask(rd, wr);
    ev.data.u64 = key;
    ::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  void update(int fd, std::uint64_t key, bool rd, bool wr) {
    epoll_event ev{};
    ev.events = mask(rd, wr);
    ev.data.u64 = key;
    ::epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void remove(int fd) { ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr); }

  void wait(int timeout_ms, std::vector<PollEvent>& out) {
    out.clear();
    epoll_event evs[64];
    const int n = ::epoll_wait(fd_, evs, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      PollEvent e;
      e.key = evs[i].data.u64;
      e.readable = (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      e.hangup = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(e);
    }
  }

 private:
  static std::uint32_t mask(bool rd, bool wr) {
    return (rd ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
           (wr ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  }
  int fd_;
};

std::string cache_json(const serve::CacheStats& c) {
  std::ostringstream out;
  out << "{\"coalesced\": " << c.coalesced << ", \"entries\": " << c.entries
      << ", \"evictions\": " << c.evictions << ", \"hits\": " << c.hits
      << ", \"misses\": " << c.misses << ", \"sssp_runs\": " << c.sssp_runs
      << ", \"structural\": " << c.structural << "}";
  return out.str();
}

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(elapsed_us(a, b));
}

}  // namespace

class Server::Impl {
 public:
  Impl(std::shared_ptr<serve::QueryEngine> engine, ServerOptions options)
      : opt_(std::move(options)), engine_(std::move(engine)) {
    if (!engine_) throw std::invalid_argument("Server: null engine");
    if (opt_.workers < 1) opt_.workers = 1;
    if (opt_.max_queue < 1) opt_.max_queue = 1;
    if (opt_.max_inflight_per_conn < 1) opt_.max_inflight_per_conn = 1;
    // One histogram per worker, and the last for the I/O thread's inline
    // answers.
    hist_.reserve(static_cast<std::size_t>(opt_.workers) + 1);
    for (int w = 0; w <= opt_.workers; ++w) {
      hist_.push_back(std::make_unique<serve::LatencyHistogram>());
    }
  }

  ~Impl() { stop(); }

  void start() {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (started_) return;

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("Server: socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opt_.port);
    if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("Server: bad host " + opt_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd_, 128) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("Server: bind/listen on " + opt_.host + ":" +
                               std::to_string(opt_.port) + " failed: " +
                               std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port_ = ntohs(addr.sin_port);
    set_nonblocking(listen_fd_);

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("Server: pipe() failed");
    }
    wake_rd_ = pipe_fds[0];
    wake_wr_ = pipe_fds[1];
    set_nonblocking(wake_rd_);
    set_nonblocking(wake_wr_);

    io_thread_ = std::thread([this] { run_io(); });
    for (int w = 0; w < opt_.workers; ++w) {
      workers_.emplace_back([this, w] { run_worker(w); });
    }
    start_time_ = Clock::now();

    // Mirror ServerStats into the global metrics registry. A collector
    // (not handles) so the page reflects the same atomics the invariant
    // ledger audits — the two can never drift apart.
    collector_id_ = obs::Registry::global().add_collector([this] {
      const ServerStats s = stats();
      std::vector<obs::Sample> out;
      out.push_back({"usne_net_accepted_connections_total",
                     s.accepted_connections, true});
      out.push_back({"usne_net_accepted_requests_total",
                     s.accepted_requests, true});
      out.push_back({"usne_net_answered_requests_total",
                     s.answered_requests, true});
      out.push_back({"usne_net_closed_connections_total",
                     s.closed_connections, true});
      out.push_back({"usne_net_idle_closed_total", s.idle_closed, true});
      out.push_back({"usne_net_in_flight", s.in_flight, false});
      out.push_back({"usne_net_protocol_errors_total",
                     s.protocol_errors, true});
      out.push_back({"usne_net_queue_depth", s.queue_depth, false});
      out.push_back({"usne_net_rejected_busy_total", s.rejected_busy, true});
      out.push_back({"usne_net_rejected_error_total",
                     s.rejected_error, true});
      out.push_back({"usne_net_reloads_total", s.reloads, true});
      return out;
    });
    collector_registered_ = true;
    started_ = true;
  }

  void stop() {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!started_ || stopped_) {
      stopped_ = true;
      return;
    }
    stopped_ = true;

    // Phase 1: stop admitting. The I/O thread sees stopping_, closes the
    // listen socket and drops read interest; workers drain what's queued.
    {
      std::lock_guard<std::mutex> qlock(queue_mutex_);
      stopping_.store(true);
    }
    queue_cv_.notify_all();
    wake();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }

    // Phase 2: workers are done, every response is in the response queue
    // or a write buffer. Let the I/O thread flush, bounded by a hard
    // deadline so a wedged client can't hold shutdown hostage.
    drain_deadline_ = Clock::now() + std::chrono::seconds(5);
    drain_mode_.store(true);
    wake();
    if (io_thread_.joinable()) io_thread_.join();

    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0) ::close(wake_wr_);
    wake_rd_ = wake_wr_ = -1;

    // The conservation ledger (inv::Category::kDaemon). Quiesced: no
    // thread is mutating counters any more.
    const ServerStats s = stats();
    USNE_CHECK(inv::Category::kDaemon,
               s.accepted_requests ==
                   s.answered_requests + s.rejected_busy + s.rejected_error,
               "request conservation: accepted=" +
                   std::to_string(s.accepted_requests) + " answered=" +
                   std::to_string(s.answered_requests) + " busy=" +
                   std::to_string(s.rejected_busy) + " error=" +
                   std::to_string(s.rejected_error));
    USNE_CHECK(inv::Category::kDaemon,
               s.in_flight == 0 && s.queue_depth == 0,
               "drained shutdown: in_flight=" + std::to_string(s.in_flight) +
                   " queue_depth=" + std::to_string(s.queue_depth));
    USNE_AUDIT(inv::Category::kDaemon,
               s.accepted_connections == s.closed_connections,
               "connection conservation: accepted=" +
                   std::to_string(s.accepted_connections) + " closed=" +
                   std::to_string(s.closed_connections));

    if (collector_registered_) {
      obs::Registry::global().remove_collector(collector_id_);
      collector_registered_ = false;
    }
  }

  std::uint16_t port() const noexcept { return bound_port_; }

  void reload(std::shared_ptr<serve::QueryEngine> next) {
    if (!next) throw std::invalid_argument("Server::reload: null engine");
    std::lock_guard<std::mutex> lock(engine_mutex_);
    if (next->emulator().num_vertices() !=
        engine_->emulator().num_vertices()) {
      throw std::invalid_argument(
          "Server::reload: vertex count mismatch (" +
          std::to_string(next->emulator().num_vertices()) + " vs " +
          std::to_string(engine_->emulator().num_vertices()) +
          ") — queued queries must stay answerable");
    }
    engine_ = std::move(next);
    reloads_.fetch_add(1, std::memory_order_relaxed);
  }

  std::shared_ptr<serve::QueryEngine> engine() const {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    return engine_;
  }

  ServerStats stats() const {
    ServerStats s;
    s.accepted_connections =
        accepted_connections_.load(std::memory_order_relaxed);
    s.closed_connections = closed_connections_.load(std::memory_order_relaxed);
    s.accepted_requests = accepted_requests_.load(std::memory_order_relaxed);
    s.answered_requests = answered_requests_.load(std::memory_order_relaxed);
    s.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
    s.rejected_error = rejected_error_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
    s.reloads = reloads_.load(std::memory_order_relaxed);
    s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
    s.in_flight = in_flight_.load(std::memory_order_relaxed);
    return s;
  }

  std::string stats_json() const {
    const ServerStats s = stats();
    serve::LatencyHistogram merged;
    for (const auto& h : hist_) merged.merge_from(*h);
    const std::shared_ptr<serve::QueryEngine> eng = engine();
    const serve::CacheStats cumulative = eng->cache_stats();
    const serve::CacheStats interval = eng->cache_stats_delta();

    std::ostringstream out;
    out << "{\"accepted_connections\": " << s.accepted_connections
        << ", \"accepted_requests\": " << s.accepted_requests
        << ", \"answered_requests\": " << s.answered_requests
        << ", \"build_info\": " << util::build_info_json()
        << ", \"cache\": " << cache_json(cumulative)
        << ", \"cache_interval\": " << cache_json(interval)
        << ", \"closed_connections\": " << s.closed_connections
        << ", \"idle_closed\": " << s.idle_closed
        << ", \"in_flight\": " << s.in_flight;
    if (inv::audits_enabled()) {
      out << ", \"invariants\": " << inv::counters_json();
    }
    out << ", \"kernel\": " << eng->kernel().json()
        << ", \"latency\": " << merged.stats_json()
        << ", \"protocol_errors\": " << s.protocol_errors
        << ", \"queue_depth\": " << s.queue_depth
        << ", \"rejected_busy\": " << s.rejected_busy
        << ", \"rejected_error\": " << s.rejected_error
        << ", \"reloads\": " << s.reloads
        << ", \"uptime_s\": " << elapsed_s(start_time_, Clock::now())
        << ", \"workers\": " << opt_.workers << "}";
    return out.str();
  }

 private:
  // One engine-bound request: queued for a worker, or answered inline.
  struct Work {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    MsgType type = MsgType::kPing;
    std::uint16_t flags = 0;
    std::vector<std::uint8_t> payload;
    Clock::time_point admitted;
  };

  // A framed reply on its way back to the I/O thread; routing it settles
  // one admitted request. `built` is when the frame was complete.
  struct Response {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> bytes;
    Clock::time_point built;
    bool answered = false;  // false for a kError reply
  };

  // Per-connection state, owned exclusively by the I/O thread. Keyed by a
  // monotonically increasing id in a std::map: iteration order is the
  // admission order, deterministic by construction.
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    int in_flight = 0;
    Clock::time_point last_activity;
  };

  void wake() {
    if (wake_wr_ < 0) return;
    const char byte = 1;
    // EAGAIN means the pipe already holds a pending wake — good enough.
    [[maybe_unused]] ssize_t n = ::write(wake_wr_, &byte, 1);
  }

  // ---- I/O thread ---------------------------------------------------------

  void run_io() {
    Poller poller;
    std::map<std::uint64_t, Conn> conns;
    std::uint64_t next_conn_id = kFirstConnId;
    std::vector<PollEvent> events;
    std::vector<std::uint8_t> rdbuf(64 * 1024);
    bool reads_disabled = false;
    // Admitted requests whose reply is not routed yet (what max_queue
    // bounds), counted here like Conn::in_flight so no worker races it.
    int admitted = 0;
    const auto io_slot = static_cast<std::size_t>(opt_.workers);
    serve::LatencyHistogram& reply_wait_us =
        obs::histogram("usne_net_reply_wait_us");

    poller.add(listen_fd_, kListenKey, true, false);
    poller.add(wake_rd_, kWakeKey, true, false);

    auto close_conn = [&](std::uint64_t id) {
      auto it = conns.find(id);
      if (it == conns.end()) return;
      poller.remove(it->second.fd);
      ::close(it->second.fd);
      conns.erase(it);
      closed_connections_.fetch_add(1, std::memory_order_relaxed);
    };

    // Flushes c.out; returns false if the connection died.
    auto flush = [&](std::uint64_t id, Conn& c) -> bool {
      USNE_TRACE_SPAN("net.write");
      while (c.out_off < c.out.size()) {
        const ssize_t n =
            ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                   MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          poller.update(c.fd, id, !reads_disabled, true);
          return true;
        }
        close_conn(id);
        return false;
      }
      c.out.clear();
      c.out_off = 0;
      poller.update(c.fd, id, !reads_disabled, false);
      return true;
    };

    // Appends a frame to c.out and flushes; enforces the write-buffer cap.
    auto send_now = [&](std::uint64_t id, Conn& c,
                        std::vector<std::uint8_t>&& bytes) -> bool {
      if (c.out.size() - c.out_off + bytes.size() > opt_.max_write_buffer) {
        close_conn(id);
        return false;
      }
      if (c.out.empty()) {
        c.out = std::move(bytes);
      } else {
        c.out.insert(c.out.end(), bytes.begin(), bytes.end());
      }
      return flush(id, c);
    };

    // Sends a settled request's reply and records an answered one's reply
    // wait; returns false if the conn was closed.
    auto deliver = [&](std::uint64_t id, Conn& c, Response&& r) -> bool {
      if (!send_now(id, c, std::move(r.bytes))) return false;
      const Clock::time_point sent = Clock::now();
      c.last_activity = sent;
      if (r.answered) reply_wait_us.record(us_between(r.built, sent));
      return true;
    };

    // Handles one decoded frame; returns false if the conn was closed.
    auto handle_frame = [&](std::uint64_t id, Conn& c, Frame&& f) -> bool {
      if (!is_request_type(static_cast<std::uint8_t>(f.type))) {
        accepted_requests_.fetch_add(1, std::memory_order_relaxed);
        rejected_error_.fetch_add(1, std::memory_order_relaxed);
        std::vector<std::uint8_t> frame_bytes;
        append_frame(frame_bytes, MsgType::kError, f.request_id,
                     encode_error(ErrorCode::kBadType, "not a request type"));
        return send_now(id, c, std::move(frame_bytes));
      }
      switch (f.type) {
        case MsgType::kPing: {
          // Health probe: answered inline, bypasses admission.
          accepted_requests_.fetch_add(1, std::memory_order_relaxed);
          answered_requests_.fetch_add(1, std::memory_order_relaxed);
          std::vector<std::uint8_t> frame_bytes;
          append_frame(frame_bytes, MsgType::kPong, f.request_id, f.payload);
          return send_now(id, c, std::move(frame_bytes));
        }
        case MsgType::kStats: {
          // Observability must stay responsive under saturation: answered
          // inline by the I/O thread, never queued.
          accepted_requests_.fetch_add(1, std::memory_order_relaxed);
          answered_requests_.fetch_add(1, std::memory_order_relaxed);
          const std::string json = stats_json();
          const auto* p = reinterpret_cast<const std::uint8_t*>(json.data());
          std::vector<std::uint8_t> frame_bytes;
          append_frame(frame_bytes, MsgType::kStatsReply, f.request_id,
                       {p, json.size()});
          return send_now(id, c, std::move(frame_bytes));
        }
        case MsgType::kMetrics: {
          // The Prometheus page: same inline, bypass-admission contract as
          // kStats, so scrapes succeed while the engine queue is saturated.
          accepted_requests_.fetch_add(1, std::memory_order_relaxed);
          answered_requests_.fetch_add(1, std::memory_order_relaxed);
          const std::string page = obs::Registry::global().prometheus_text();
          const auto* p = reinterpret_cast<const std::uint8_t*>(page.data());
          std::vector<std::uint8_t> frame_bytes;
          append_frame(frame_bytes, MsgType::kMetricsReply, f.request_id,
                       {p, page.size()});
          return send_now(id, c, std::move(frame_bytes));
        }
        default: {
          accepted_requests_.fetch_add(1, std::memory_order_relaxed);
          Work w{id, f.request_id, f.type, f.flags, std::move(f.payload),
                 Clock::now()};
          // A structural engine answers a PAIR or point-only BATCH frame in
          // well under a microsecond per query, so this thread answers it
          // at once: no queue, no worker wake-up, no response queue and no
          // wake pipe. SINGLE_SOURCE frames and Dial engines queue.
          const std::shared_ptr<serve::QueryEngine> eng = engine();
          if (eng->kernel().structural &&
              (w.type == MsgType::kPair ||
               (w.type == MsgType::kBatch &&
                !batch_has_single_source(w.payload)))) {
            return deliver(id, c, answer(*eng, w, io_slot));
          }
          // Engine-bound work: admission control, then the worker queue.
          const bool queue_full = admitted >= opt_.max_queue;
          const bool conn_full = c.in_flight >= opt_.max_inflight_per_conn;
          if (queue_full || conn_full) {
            rejected_busy_.fetch_add(1, std::memory_order_relaxed);
            std::vector<std::uint8_t> frame_bytes;
            append_frame(
                frame_bytes, MsgType::kBusy, f.request_id,
                encode_error(ErrorCode::kBusy, queue_full ? "queue full"
                                                          : "in-flight cap"));
            return send_now(id, c, std::move(frame_bytes));
          }
          in_flight_.fetch_add(1, std::memory_order_relaxed);
          admitted += 1;
          c.in_flight += 1;
          {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            work_queue_.push_back(std::move(w));
            queue_depth_.fetch_add(1, std::memory_order_relaxed);
          }
          queue_cv_.notify_one();
          return true;
        }
      }
    };

    auto read_conn = [&](std::uint64_t id, Conn& c) {
      USNE_TRACE_SPAN("net.read");
      for (;;) {
        const ssize_t n = ::recv(c.fd, rdbuf.data(), rdbuf.size(), 0);
        if (n > 0) {
          c.in.insert(c.in.end(), rdbuf.begin(), rdbuf.begin() + n);
          c.last_activity = Clock::now();
          if (static_cast<std::size_t>(n) < rdbuf.size()) break;
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        close_conn(id);  // orderly EOF or hard error
        return;
      }
      std::size_t off = 0;
      Frame f;
      for (;;) {
        const DecodeStatus st = decode_frame(c.in, off, f);
        if (st == DecodeStatus::kFrame) {
          if (!handle_frame(id, c, std::move(f))) return;  // conn closed
          continue;
        }
        if (st == DecodeStatus::kNeedMore) break;
        // Framing-level garbage: not a request, never enters the request
        // ledger. The stream is unrecoverable — close it.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        close_conn(id);
        return;
      }
      if (off > 0) {
        c.in.erase(c.in.begin(),
                   c.in.begin() + static_cast<std::ptrdiff_t>(off));
      }
    };

    auto accept_loop = [&] {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        set_nonblocking(fd);
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const std::uint64_t id = next_conn_id++;
        Conn c;
        c.fd = fd;
        c.last_activity = Clock::now();
        conns.emplace(id, std::move(c));
        poller.add(fd, id, true, false);
        accepted_connections_.fetch_add(1, std::memory_order_relaxed);
      }
    };

    auto route_responses = [&] {
      std::deque<Response> batch;
      {
        std::lock_guard<std::mutex> lock(response_mutex_);
        batch.swap(responses_);
      }
      for (Response& r : batch) {
        admitted -= 1;
        auto it = conns.find(r.conn_id);
        if (it == conns.end()) continue;  // client left; reply is dropped
        it->second.in_flight -= 1;
        deliver(r.conn_id, it->second, std::move(r));
      }
    };

    std::vector<std::uint64_t> doomed;
    auto idle_harvest = [&](Clock::time_point now) {
      if (opt_.idle_timeout_ms <= 0) return;
      doomed.clear();
      for (const auto& [id, c] : conns) {
        if (c.in_flight > 0 || c.out_off < c.out.size()) continue;
        if (elapsed_us(c.last_activity, now) >= opt_.idle_timeout_ms * 1000) {
          doomed.push_back(id);
        }
      }
      for (std::uint64_t id : doomed) {
        idle_closed_.fetch_add(1, std::memory_order_relaxed);
        close_conn(id);
      }
    };

    for (;;) {
      const bool draining = drain_mode_.load(std::memory_order_acquire);
      poller.wait(draining ? 10 : 50, events);
      const Clock::time_point now = Clock::now();

      if (stopping_.load(std::memory_order_relaxed) && !reads_disabled) {
        reads_disabled = true;
        if (listen_fd_ >= 0) {
          poller.remove(listen_fd_);
          ::close(listen_fd_);
          listen_fd_ = -1;
        }
        for (const auto& [id, c] : conns) {
          poller.update(c.fd, id, false, c.out_off < c.out.size());
        }
      }

      for (const PollEvent& ev : events) {
        if (ev.key == kListenKey) {
          if (!reads_disabled) accept_loop();
          continue;
        }
        if (ev.key == kWakeKey) {
          char drainbuf[256];
          while (::read(wake_rd_, drainbuf, sizeof(drainbuf)) > 0) {
          }
          continue;
        }
        auto it = conns.find(ev.key);
        if (it == conns.end()) continue;  // closed earlier this round
        if (ev.hangup) {
          close_conn(ev.key);
          continue;
        }
        if (ev.writable) {
          if (!flush(ev.key, it->second)) continue;
        }
        if (ev.readable && !reads_disabled) read_conn(ev.key, it->second);
      }

      route_responses();
      if (!draining) idle_harvest(now);

      if (draining) {
        bool responses_pending;
        {
          std::lock_guard<std::mutex> lock(response_mutex_);
          responses_pending = !responses_.empty();
        }
        bool outs_pending = false;
        for (const auto& [id, c] : conns) {
          if (c.out_off < c.out.size()) {
            outs_pending = true;
            break;
          }
        }
        if ((!responses_pending && !outs_pending) || now >= drain_deadline_) {
          break;
        }
      }
    }

    doomed.clear();
    for (const auto& [id, c] : conns) doomed.push_back(id);
    for (std::uint64_t id : doomed) close_conn(id);
  }

  // ---- worker threads -----------------------------------------------------

  // Pops the front request as soon as one is queued and answers it alone.
  // On stop() a worker drains what is queued, then returns.
  void run_worker(int w) {
    for (;;) {
      Work wk;
      {
        USNE_TRACE_SPAN("net.queue_wait");
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock, [this] {
          return !work_queue_.empty() ||
                 stopping_.load(std::memory_order_relaxed);
        });
        if (work_queue_.empty()) return;
        wk = std::move(work_queue_.front());
        work_queue_.pop_front();
        queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      }
      Response r = answer(*engine(), wk, static_cast<std::size_t>(w));
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(response_mutex_);
        responses_.push_back(std::move(r));
      }
      wake();
    }
  }

  // Parses, range-checks and answers one engine-bound request on `eng`
  // (one snapshot per request: a reload() lands between requests), and
  // frames the reply. Workers call it for queued work, the I/O thread for
  // inline frames, whose queue wait reads 0. Queue wait (admitted to
  // popped) plus engine (popped to reply built) is the request latency;
  // all three come from the same clock reads.
  Response answer(const serve::QueryEngine& eng, const Work& wk,
                  std::size_t slot) {
    USNE_TRACE_SPAN("net.engine");
    static serve::LatencyHistogram& queue_wait_us =
        obs::histogram("usne_net_queue_wait_us");
    static serve::LatencyHistogram& engine_us =
        obs::histogram("usne_net_engine_us");
    static serve::LatencyHistogram& request_latency_us =
        obs::histogram("usne_net_request_latency_us");
    const Clock::time_point popped = Clock::now();
    const Vertex n = eng.emulator().num_vertices();
    std::vector<std::uint8_t> reply;
    MsgType rtype = MsgType::kError;
    std::uint16_t rflags = 0;
    bool ok = true;

    switch (wk.type) {
      case MsgType::kPair: {
        Vertex u = 0;
        Vertex v = 0;
        if (!parse_pair_request(wk.payload, u, v) || u < 0 || v < 0 ||
            u >= n || v >= n) {
          ok = false;
          break;
        }
        reply = encode_dist_reply(eng.query(u, v));
        rtype = MsgType::kPairReply;
        break;
      }
      case MsgType::kSingleSource: {
        Vertex s = 0;
        if (!parse_single_source_request(wk.payload, s) || s < 0 || s >= n) {
          ok = false;
          break;
        }
        const serve::SsspResult dist = eng.query_all(s);
        if ((wk.flags & kFlagFullVector) != 0) {
          reply = encode_dist_vector_reply(*dist);
          rflags = kFlagFullVector;
        } else {
          reply = encode_dist_reply(serve::checksum_fold(*dist));
        }
        rtype = MsgType::kSingleSourceReply;
        break;
      }
      case MsgType::kBatch: {
        std::vector<serve::Query> queries;
        if (!parse_batch_request(wk.payload, queries)) {
          ok = false;
          break;
        }
        for (const serve::Query& q : queries) {
          if (q.u < 0 || q.u >= n || (!q.all && (q.v < 0 || q.v >= n))) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
        const serve::BatchResult r = eng.serve(queries, 1);
        reply = encode_batch_reply(r.answers);
        rtype = MsgType::kBatchReply;
        break;
      }
      default:
        ok = false;  // unreachable: only engine-bound types get here
        break;
    }

    Response r{wk.conn_id, {}, {}, ok};
    if (ok) {
      append_frame(r.bytes, rtype, wk.request_id, reply, rflags);
      r.built = Clock::now();
      answered_requests_.fetch_add(1, std::memory_order_relaxed);
      queue_wait_us.record(us_between(wk.admitted, popped));
      engine_us.record(us_between(popped, r.built));
      hist_[slot]->record(us_between(wk.admitted, r.built));
      request_latency_us.record(us_between(wk.admitted, r.built));
    } else {
      rejected_error_.fetch_add(1, std::memory_order_relaxed);
      append_frame(r.bytes, MsgType::kError, wk.request_id,
                   encode_error(ErrorCode::kMalformed, "bad payload"));
    }
    return r;
  }

  // ---- state ---------------------------------------------------------------

  ServerOptions opt_;

  mutable std::mutex engine_mutex_;
  std::shared_ptr<serve::QueryEngine> engine_;

  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::uint16_t bound_port_ = 0;

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Work> work_queue_;

  std::mutex response_mutex_;
  std::deque<Response> responses_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> drain_mode_{false};
  Clock::time_point drain_deadline_{};

  std::mutex lifecycle_mutex_;
  bool started_ = false;
  bool stopped_ = false;
  Clock::time_point start_time_ = Clock::now();
  std::size_t collector_id_ = 0;
  bool collector_registered_ = false;

  std::atomic<std::int64_t> accepted_connections_{0};
  std::atomic<std::int64_t> closed_connections_{0};
  std::atomic<std::int64_t> accepted_requests_{0};
  std::atomic<std::int64_t> answered_requests_{0};
  std::atomic<std::int64_t> rejected_busy_{0};
  std::atomic<std::int64_t> rejected_error_{0};
  std::atomic<std::int64_t> protocol_errors_{0};
  std::atomic<std::int64_t> idle_closed_{0};
  std::atomic<std::int64_t> reloads_{0};
  std::atomic<std::int64_t> queue_depth_{0};
  std::atomic<std::int64_t> in_flight_{0};

  std::vector<std::unique_ptr<serve::LatencyHistogram>> hist_;
};

Server::Server(std::shared_ptr<serve::QueryEngine> engine,
               ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(engine), std::move(options))) {}

Server::~Server() = default;

void Server::start() { impl_->start(); }
void Server::stop() { impl_->stop(); }
std::uint16_t Server::port() const noexcept { return impl_->port(); }
void Server::reload(std::shared_ptr<serve::QueryEngine> engine) {
  impl_->reload(std::move(engine));
}
std::shared_ptr<serve::QueryEngine> Server::engine() const {
  return impl_->engine();
}
ServerStats Server::stats() const { return impl_->stats(); }
std::string Server::stats_json() const { return impl_->stats_json(); }

}  // namespace usne::net
