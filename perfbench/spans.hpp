#pragma once

// The benchmark's own span recorder and the analysis that turns its spans
// into per-layer self times and coverage.
//
// A span wraps one call from the benchmark into a layer of the program. Its
// name is "<layer>.<call>" (the layer is the text before the first dot), and
// it carries a parent span id and, inside the query phase, a request id.
// Spans live in memory until the run ends; each client thread fills its own
// buffer and hands it over once, after its loop. With the tracer disabled,
// Scope reads no clock and records nothing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";      ///< "<layer>.<call>", a string literal
  std::int64_t id = 0;
  std::int64_t parent = 0;    ///< 0 for a top-level span
  std::int64_t request = -1;  ///< request id in the query phase, else -1
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  std::int64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Moves a thread's buffer in (called once per thread, after its loop).
  void merge(std::vector<Span>& local) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), local.begin(), local.end());
    local.clear();
  }

  /// Quiescent: call after every recording thread has joined.
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<std::int64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span. Records into `sink` when given (a client thread's own
/// buffer), otherwise straight into the tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t parent,
        std::vector<Span>* sink = nullptr, int thread = 0,
        std::int64_t request = -1)
      : tracer_(tracer), sink_(sink) {
    if (!tracer_.enabled()) return;
    span_.name = name;
    span_.id = tracer_.next_id();
    span_.parent = parent;
    span_.request = request;
    span_.thread = thread;
    span_.start_ns = tracer_.now_ns();
  }
  ~Scope() {
    if (!tracer_.enabled()) return;
    span_.end_ns = tracer_.now_ns();
    if (sink_ != nullptr) {
      sink_->push_back(span_);
    } else {
      tracer_.record(span_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// 0 when tracing is off, so children become top-level no-ops too.
  std::int64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tracer_;
  std::vector<Span>* sink_;
  Span span_;
};

inline std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

/// Length of the union of `children`'s intervals clipped to [lo, hi].
inline std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> children,
                               std::int64_t lo, std::int64_t hi) {
  std::sort(children.begin(), children.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;
  for (const auto& [a, b] : children) {
    const std::int64_t from = std::max(a, reach);
    const std::int64_t to = std::min(b, hi);
    if (to > from) {
      total += to - from;
      reach = to;
    }
  }
  return total;
}

struct SpanSummary {
  /// Per layer: summed span time minus the part its child spans cover.
  std::map<std::string, double> self_s;
  /// Share of the bench.setup spans covered by their child (layer) spans.
  double setup_coverage = 0;
  /// Lowest share, over client threads, of a bench.client span covered by
  /// its request spans.
  double request_coverage = 0;
};

inline SpanSummary summarize(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  SpanSummary out;
  std::int64_t setup_total = 0;
  std::int64_t setup_covered = 0;
  bool any_client = false;
  out.request_coverage = 1.0;
  for (const Span& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    const std::int64_t cov =
        it == children.end() ? 0 : covered_ns(it->second, s.start_ns, s.end_ns);
    out.self_s[layer_of(s.name)] += static_cast<double>(dur - cov) * 1e-9;
    const std::string name(s.name);
    if (name == "bench.setup") {
      setup_total += dur;
      setup_covered += cov;
    } else if (name == "bench.client" && dur > 0) {
      any_client = true;
      out.request_coverage = std::min(
          out.request_coverage,
          static_cast<double>(cov) / static_cast<double>(dur));
    }
  }
  out.setup_coverage =
      setup_total > 0 ? static_cast<double>(setup_covered) /
                            static_cast<double>(setup_total)
                      : 0;
  if (!any_client) out.request_coverage = 0;
  return out;
}

/// Chrome trace-event JSON ("X" complete events), loadable in
/// chrome://tracing or ui.perfetto.dev.
inline std::string chrome_json(const std::vector<Span>& spans) {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out << ",\n";
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << layer_of(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace perfbench
