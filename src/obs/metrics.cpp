#include "obs/metrics.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace usne::obs {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

void check_name(const std::string& name) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("obs: malformed metric name '" + name +
                                "' (want [a-zA-Z_][a-zA-Z0-9_]*)");
  }
}

}  // namespace

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  if (gauges_.count(name) != 0 || hists_.count(name) != 0) {
    throw std::invalid_argument("obs: '" + name +
                                "' already registered as a different type");
  }
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || hists_.count(name) != 0) {
    throw std::invalid_argument("obs: '" + name +
                                "' already registered as a different type");
  }
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& Registry::histogram(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    throw std::invalid_argument("obs: '" + name +
                                "' already registered as a different type");
  }
  auto& slot = hists_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

std::size_t Registry::add_collector(Collector fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(fn));
  return id;
}

void Registry::remove_collector(std::size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(id);
}

// A scrape snapshot: scalar series (owned + collected, last write wins on a
// name collision — deterministic because collectors run in registration
// order) plus pointers to the owned histograms. Built under mu_; the
// histogram pointers stay valid because series are never erased.
struct Registry::Scrape {
  std::map<std::string, std::pair<std::int64_t, bool>> scalars;  // -> (v, ctr)
  std::map<std::string, const LatencyHistogram*> hists;
};

Registry::Scrape Registry::collect() const {
  std::vector<Collector> collectors;
  Scrape s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      s.scalars[name] = {c->value(), true};
    }
    for (const auto& [name, g] : gauges_) {
      s.scalars[name] = {g->value(), false};
    }
    for (const auto& [name, h] : hists_) s.hists[name] = h.get();
    collectors.reserve(collectors_.size());
    for (const auto& [id, fn] : collectors_) collectors.push_back(fn);
  }
  // Collectors run outside mu_: they may touch arbitrary subsystem locks
  // (the daemon's stats mutex), and a collector resolving a handle via
  // Registry::counter would deadlock under mu_.
  for (const auto& fn : collectors) {
    for (Sample& smp : fn()) {
      s.scalars[smp.name] = {smp.value, smp.is_counter};
    }
  }
  return s;
}

std::string Registry::prometheus_text() const {
  const Scrape s = collect();
  std::ostringstream out;
  // Scalars and histograms interleave in global name order so the page is
  // one sorted sequence (scrape-to-scrape byte-stable for fixed state).
  auto it_s = s.scalars.begin();
  auto it_h = s.hists.begin();
  while (it_s != s.scalars.end() || it_h != s.hists.end()) {
    const bool scalar_first =
        it_h == s.hists.end() ||
        (it_s != s.scalars.end() && it_s->first < it_h->first);
    if (scalar_first) {
      out << "# TYPE " << it_s->first
          << (it_s->second.second ? " counter\n" : " gauge\n");
      out << it_s->first << ' ' << it_s->second.first << '\n';
      ++it_s;
    } else {
      const std::string& name = it_h->first;
      const LatencyHistogram& h = *it_h->second;
      out << "# TYPE " << name << " histogram\n";
      std::int64_t cumulative = 0;
      for (int b = 0; b < LatencyHistogram::kBucketCount; ++b) {
        const std::int64_t n = h.bucket_count(b);
        if (n == 0) continue;
        cumulative += n;
        out << name << "_bucket{le=\""
            << LatencyHistogram::bucket_upper_bound(b) << "\"} "
            << cumulative << '\n';
      }
      out << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
      out << name << "_sum " << h.sum() << '\n';
      out << name << "_count " << h.count() << '\n';
      ++it_h;
    }
  }
  return out.str();
}

std::string Registry::json() const {
  const Scrape s = collect();
  std::ostringstream out;
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, vc] : s.scalars) {
    if (!vc.second) continue;
    out << (first ? "" : ", ") << '"' << name << "\": " << vc.first;
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, vc] : s.scalars) {
    if (vc.second) continue;
    out << (first ? "" : ", ") << '"' << name << "\": " << vc.first;
    first = false;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : s.hists) {
    out << (first ? "" : ", ") << '"' << name << "\": " << h->stats_json();
    first = false;
  }
  out << "}}";
  return out.str();
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : hists_) h->reset();
}

}  // namespace usne::obs
