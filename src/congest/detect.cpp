#include "congest/detect.hpp"

#include <algorithm>
#include <cstdint>

#include "congest/engine.hpp"

namespace usne::congest {
namespace {

constexpr Word kExplore = 4;  // <kExplore, source, dist>

/// Algorithm 2 as a NodeProgram. The schedule is delta strides of `cap`
/// rounds; in round t of a stride every active vertex broadcasts the t-th
/// source it learnt during the previous stride. Stride boundaries recompute
/// the pending lists (smallest (dist, id) first, truncated to cap). The
/// lists sit back to back in one flat array, senders in ascending order,
/// and each round a sender broadcasts its next entry and drops out once
/// its list is spent.
///
/// Duplicate test. A vertex scans its hit list while the list is smaller
/// than a bitset over the run's sources (dense rank); once the list takes
/// as many bytes as that bitset, the vertex switches to the bitset and
/// tests each arrival in O(1). The bitsets therefore never outweigh the
/// lists they index. No n x |sources| matrix is ever allocated: phase 0
/// runs with every vertex a source.
///
/// Stride boundary. What a vertex learnt during the stride just completed
/// is the suffix of its hit list appended since the previous boundary, so
/// a boundary visits only the vertices that learnt something (collected
/// per shard, then sorted ascending: senders keep the order a full scan
/// would give). The suffix is still filtered by distance: under async
/// delivery a message sent in an earlier stride can land in this one, and
/// it keeps the distance its message carried.
///
/// Parallel audit: on_round mutates only per-vertex state (hits_[v],
/// seen_[v]) and pushes v into its own shard's learners_ buffer; it reads
/// learnt_from_[v], which only the boundary writes. pending_, senders_,
/// learnt_from_ and the drained learners are rewritten exclusively at
/// stride boundaries inside end_round (serial).
class DetectProgram final : public NodeProgram {
 public:
  DetectProgram(Vertex n, const std::vector<Vertex>& sources, Dist delta,
                std::int64_t cap)
      : cap_(cap), total_rounds_(delta * cap) {
    const auto un = static_cast<std::size_t>(n);
    hits_.assign(un, {});
    seen_.assign(un, {});
    rank_.assign(un, -1);
    learnt_from_.assign(un, 0);
    std::vector<Vertex> sorted = sources;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    bitset_words_ = (sorted.size() + 63) / 64;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const auto s = static_cast<std::size_t>(sorted[i]);
      rank_[s] = static_cast<std::int32_t>(i);
      hits_[s].push_back({sorted[i], 0, -1});
      learnt_from_[s] = 1;
      pending_.push_back({sorted[i], 0, -1});
      senders_.push_back({sorted[i], i, i + 1});
    }
  }

  void set_shards(std::size_t shards) override { learners_.reset(shards); }

  void init(Outbox& out) override {
    if (total_rounds_ > 0) send_entries(out);
  }

  void on_round(std::int64_t, Vertex v, std::span<const Received> inbox,
                Outbox& out) override {
    const auto sv = static_cast<std::size_t>(v);
    auto& known = hits_[sv];
    const std::size_t before = known.size();
    for (const Received& r : inbox) {
      if (r.msg.words[0] != kExplore) continue;
      const Vertex src = static_cast<Vertex>(r.msg.words[1]);
      if (first_hearing(sv, src)) {
        known.push_back({src, r.msg.words[2] + 1, r.from});
      }
    }
    if (before == learnt_from_[sv] && known.size() > before) {
      learners_.push(out.shard(), v);  // first entry this stride
    }
  }

  void end_round(std::int64_t round, Outbox& out) override {
    if (round + 1 >= total_rounds_) return;  // schedule exhausted
    if (round % cap_ == cap_ - 1) stride_boundary(round / cap_ + 1);
    send_entries(out);
  }

  bool done(std::int64_t next_round) const override {
    return next_round >= total_rounds_;
  }

  std::vector<std::vector<SourceHit>> take_hits() {
    for (auto& known : hits_) {
      std::sort(known.begin(), known.end(),
                [](const SourceHit& a, const SourceHit& b) {
                  return a.dist != b.dist ? a.dist < b.dist
                                          : a.source < b.source;
                });
    }
    return std::move(hits_);
  }

 private:
  /// True the first time v hears `src` (which is then marked heard).
  bool first_hearing(std::size_t v, Vertex src) {
    std::vector<std::uint64_t>& seen = seen_[v];
    if (seen.empty()) {
      const auto& known = hits_[v];
      if (known.size() * sizeof(SourceHit) <
          bitset_words_ * sizeof(std::uint64_t)) {
        return std::none_of(known.begin(), known.end(),
                            [&](const SourceHit& h) { return h.source == src; });
      }
      seen.assign(bitset_words_, 0);
      for (const SourceHit& h : known) test_and_set(seen, h.source);
    }
    return !test_and_set(seen, src);
  }

  /// Sets `src`'s bit; returns whether it was already set.
  bool test_and_set(std::vector<std::uint64_t>& seen, Vertex src) const {
    const auto rank =
        static_cast<std::size_t>(rank_[static_cast<std::size_t>(src)]);
    std::uint64_t& word = seen[rank / 64];
    const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
    const bool was_set = (word & bit) != 0;
    word |= bit;
    return was_set;
  }

  /// One round of the stride: every sender broadcasts its next pending
  /// entry (in round t, the t-th of its list).
  void send_entries(Outbox& out) {
    std::size_t kept = 0;
    for (Sender s : senders_) {
      const SourceHit& h = pending_[s.next++];
      out.broadcast(s.v, Message::of(kExplore, h.source, h.dist));
      if (s.next < s.end) senders_[kept++] = s;
    }
    senders_.resize(kept);
  }

  /// Pending lists for the next stride = sources learnt during the stride
  /// just completed, truncated to the cap (smallest (dist, id) first —
  /// deterministic specialization of the paper's arbitrary choice).
  void stride_boundary(Dist completed_stride) {
    pending_.clear();
    senders_.clear();  // already spent: no list is longer than the stride
    std::vector<Vertex> learnt;
    learners_.drain_into(learnt);
    std::sort(learnt.begin(), learnt.end());
    for (const Vertex v : learnt) {
      const auto sv = static_cast<std::size_t>(v);
      const auto& known = hits_[sv];
      const std::size_t begin = pending_.size();
      for (std::size_t i = learnt_from_[sv]; i < known.size(); ++i) {
        if (known[i].dist == completed_stride) pending_.push_back(known[i]);
      }
      learnt_from_[sv] = known.size();
      if (pending_.size() == begin) continue;
      const auto fresh = pending_.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(fresh, pending_.end(),
                [](const SourceHit& a, const SourceHit& b) {
                  return a.source < b.source;  // equal dist within a stride
                });
      if (static_cast<std::int64_t>(pending_.size() - begin) > cap_) {
        pending_.resize(begin + static_cast<std::size_t>(cap_));
      }
      senders_.push_back({v, begin, pending_.size()});
    }
  }

  std::int64_t cap_;
  std::int64_t total_rounds_;
  std::vector<std::vector<SourceHit>> hits_;
  // The stride's forwarding schedule: sender v broadcasts
  // pending_[next, end), one entry per round; senders_ is ascending in v.
  struct Sender {
    Vertex v;
    std::size_t next;
    std::size_t end;
  };
  std::vector<SourceHit> pending_;
  std::vector<Sender> senders_;
  // Duplicate test: each source's dense rank (-1 for non-sources, which
  // never circulate), the bitset length in words, and per-vertex bitsets
  // (empty until the vertex's hit list outweighs one).
  std::vector<std::int32_t> rank_;
  std::size_t bitset_words_ = 0;
  std::vector<std::vector<std::uint64_t>> seen_;
  // Stride bookkeeping: hits_[v][learnt_from_[v]..] is what v learnt since
  // the last boundary; learners_ collects each such v once per stride.
  std::vector<std::size_t> learnt_from_;
  Sharded<Vertex> learners_;
};

}  // namespace

Dist DetectResult::distance_to(Vertex v, Vertex source) const {
  for (const SourceHit& h : hits[static_cast<std::size_t>(v)]) {
    if (h.source == source) return h.dist;
  }
  return kInfDist;
}

std::size_t DetectResult::heard_others(Vertex v) const {
  std::size_t count = 0;
  for (const SourceHit& h : hits[static_cast<std::size_t>(v)]) {
    if (h.source != v) ++count;
  }
  return count;
}

std::vector<Vertex> DetectResult::path_to(Vertex v, Vertex source) const {
  std::vector<Vertex> path;
  Vertex cur = v;
  while (cur != -1) {
    path.push_back(cur);
    if (cur == source) return path;
    const auto& list = hits[static_cast<std::size_t>(cur)];
    const auto it = std::find_if(list.begin(), list.end(), [&](const SourceHit& h) {
      return h.source == source;
    });
    if (it == list.end()) return {};
    cur = it->pred;
  }
  return {};
}

DetectResult detect_congest(Network& net, const std::vector<Vertex>& sources,
                            Dist delta, std::int64_t cap) {
  DetectProgram program(net.num_vertices(), sources, delta, cap);
  const ScheduleReport report = Scheduler(net).run(program);
  DetectResult result;
  result.hits = program.take_hits();
  result.rounds_used = report.rounds;
  return result;
}

}  // namespace usne::congest
