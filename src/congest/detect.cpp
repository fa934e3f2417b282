#include "congest/detect.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "congest/engine.hpp"

namespace usne::congest {
namespace {

constexpr Word kExplore = 4;  // <kExplore, source, dist>

/// Algorithm 2 as a NodeProgram. The schedule is delta strides of `cap`
/// rounds; in round t of a stride every active vertex broadcasts the t-th
/// source it learnt during the previous stride. The lists sit back to back
/// in one flat array, senders in ascending order, and each round a sender
/// broadcasts its next entry and drops out once its list is spent.
///
/// Forwarding lists. As arrivals come in, each vertex keeps the cap
/// smallest ids it hears for the first time at the stride's own distance
/// (a plain list until it holds cap ids, a max-heap after); at the stride
/// boundary they become its next list, smallest id first. The distance is
/// the one the message carried: under async delivery a message sent in an
/// earlier stride can land in this one, and it is heard but not forwarded.
/// The last stride forwards nothing, so it keeps no ids.
///
/// Kept and unkept vertices. A kept vertex also records every hit
/// (source, dist, pred). Any other vertex records no hit: it keeps only
/// the ids it heard, for the duplicate test.
///
/// Duplicate test. A vertex scans its list (hits, or heard ids) while the
/// list is smaller than a bitset over the run's sources (dense rank); once
/// the list takes as many bytes as that bitset, the vertex switches to the
/// bitset and tests each arrival in O(1), and an unkept vertex drops its
/// id list. The bitsets therefore never outweigh the lists they index. No
/// n x |sources| matrix is ever allocated: phase 0 runs with every vertex
/// a source.
///
/// Stride boundary. A boundary visits only the vertices that kept an id
/// (collected per shard, then sorted ascending: senders keep the order a
/// full scan would give). Each one's ids become its next list in id order.
/// Dense ranks follow id order, so a list with at least as many ids as the
/// rank bitset has words is marked in one reused scratch bitset and read
/// back lowest bit first, in O(ids + words); a shorter list is sorted. The
/// lists come out the same either way.
///
/// Parallel audit: on_round mutates only per-vertex state (hits_[v],
/// heard_[v], seen_[v], fresh_[v]) and pushes v into its own shard's
/// learners_ buffer. pending_, senders_ and the drained learners are
/// rewritten, and fresh_ emptied, exclusively at stride boundaries inside
/// end_round (serial).
class DetectProgram final : public NodeProgram {
 public:
  DetectProgram(Vertex n, const std::vector<Vertex>& sources, const KeepSet& keep,
                Dist delta, std::int64_t cap)
      : keep_(keep), cap_(cap), total_rounds_(delta * cap) {
    const auto un = static_cast<std::size_t>(n);
    hits_.assign(un, {});
    seen_.assign(un, {});
    if (!keep_.full()) heard_.assign(un, {});
    fresh_.assign(un, {});
    rank_.assign(un, -1);
    by_rank_ = sources;
    std::sort(by_rank_.begin(), by_rank_.end());
    by_rank_.erase(std::unique(by_rank_.begin(), by_rank_.end()),
                   by_rank_.end());
    bitset_words_ = (by_rank_.size() + 63) / 64;
    order_.assign(bitset_words_, 0);
    for (std::size_t i = 0; i < by_rank_.size(); ++i) {
      const Vertex s = by_rank_[i];
      const auto si = static_cast<std::size_t>(s);
      rank_[si] = static_cast<std::int32_t>(i);
      if (keep_.contains(s)) {
        hits_[si].push_back({s, 0, -1});
      } else {
        heard_[si].push_back(s);
      }
      pending_.push_back(s);
      senders_.push_back({s, i, i + 1});
    }
  }

  void set_shards(std::size_t shards) override { learners_.reset(shards); }

  void init(Outbox& out) override {
    if (total_rounds_ > 0) send_entries(out);
  }

  void on_round(std::int64_t round, Vertex v, std::span<const Received> inbox,
                Outbox& out) override {
    const auto sv = static_cast<std::size_t>(v);
    const bool kept = keep_.contains(v);
    // The stride's own distance; none in the last stride.
    const Dist forward_dist = round + cap_ < total_rounds_ ? round / cap_ + 1 : -1;
    std::vector<Vertex>& fresh = fresh_[sv];
    const bool learnt = !fresh.empty();
    for (const Received& r : inbox) {
      if (r.msg.words[0] != kExplore) continue;
      const Vertex src = static_cast<Vertex>(r.msg.words[1]);
      const Dist dist = r.msg.words[2] + 1;
      const bool first = kept ? hear_kept(sv, {src, dist, r.from})
                              : hear_unkept(sv, src);
      if (first && dist == forward_dist) offer(fresh, src);
    }
    if (!learnt && !fresh.empty()) learners_.push(out.shard(), v);
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
  /// True the first time the kept vertex v hears `hit.source`; the hit is
  /// then recorded, which marks it heard.
  bool hear_kept(std::size_t v, const SourceHit& hit) {
    std::vector<std::uint64_t>& seen = seen_[v];
    auto& known = hits_[v];
    if (seen.empty()) {
      if (known.size() * sizeof(SourceHit) <
          bitset_words_ * sizeof(std::uint64_t)) {
        if (std::any_of(known.begin(), known.end(), [&](const SourceHit& h) {
              return h.source == hit.source;
            })) {
          return false;
        }
        known.push_back(hit);
        return true;
      }
      seen.assign(bitset_words_, 0);
      for (const SourceHit& h : known) test_and_set(seen, h.source);
    }
    if (test_and_set(seen, hit.source)) return false;
    known.push_back(hit);
    return true;
  }

  /// True the first time the unkept vertex v hears `src`, which is then
  /// marked heard.
  bool hear_unkept(std::size_t v, Vertex src) {
    std::vector<std::uint64_t>& seen = seen_[v];
    if (seen.empty()) {
      std::vector<Vertex>& heard = heard_[v];
      if (heard.size() * sizeof(Vertex) < bitset_words_ * sizeof(std::uint64_t)) {
        if (std::find(heard.begin(), heard.end(), src) != heard.end()) return false;
        heard.push_back(src);
        return true;
      }
      seen.assign(bitset_words_, 0);
      for (const Vertex s : heard) test_and_set(seen, s);
      std::vector<Vertex>().swap(heard);
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

  /// Keeps `src` in `fresh` iff it is among the cap smallest ids offered
  /// this stride (each id is offered once: the duplicate test runs first).
  /// `fresh` is a plain list until it holds cap ids, a max-heap after.
  void offer(std::vector<Vertex>& fresh, Vertex src) const {
    if (static_cast<std::int64_t>(fresh.size()) < cap_) {
      fresh.push_back(src);
      if (static_cast<std::int64_t>(fresh.size()) == cap_) {
        std::make_heap(fresh.begin(), fresh.end());
      }
    } else if (src < fresh.front()) {
      std::pop_heap(fresh.begin(), fresh.end());
      fresh.back() = src;
      std::push_heap(fresh.begin(), fresh.end());
    }
  }

  /// One round of the stride: every sender broadcasts its next pending
  /// entry (in round t, the t-th of its list).
  void send_entries(Outbox& out) {
    std::size_t kept = 0;
    for (Sender s : senders_) {
      const Vertex src = pending_[s.next++];
      out.broadcast(s.v, Message::of(kExplore, src, pending_dist_));
      if (s.next < s.end) senders_[kept++] = s;
    }
    senders_.resize(kept);
  }

  /// Pending lists for the next stride = each learner's fresh ids: the
  /// cap smallest sources first heard at distance `completed_stride`
  /// during the stride just completed (smallest id first — deterministic
  /// specialization of the paper's arbitrary choice).
  void stride_boundary(Dist completed_stride) {
    pending_.clear();
    senders_.clear();  // already spent: no list is longer than the stride
    pending_dist_ = completed_stride;
    learnt_.clear();
    learners_.drain_into(learnt_);
    std::sort(learnt_.begin(), learnt_.end());
    for (const Vertex v : learnt_) {
      std::vector<Vertex>& fresh = fresh_[static_cast<std::size_t>(v)];
      const std::size_t begin = pending_.size();
      if (fresh.size() >= bitset_words_) {
        for (const Vertex src : fresh) test_and_set(order_, src);
        append_marked();
      } else {
        std::sort(fresh.begin(), fresh.end());
        pending_.insert(pending_.end(), fresh.begin(), fresh.end());
      }
      fresh.clear();
      senders_.push_back({v, begin, pending_.size()});
    }
  }

  /// Appends the sources marked in order_ to pending_, lowest rank (so
  /// smallest id) first, and clears order_.
  void append_marked() {
    for (std::size_t w = 0; w < order_.size(); ++w) {
      for (std::uint64_t bits = order_[w]; bits != 0; bits &= bits - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        pending_.push_back(by_rank_[w * 64 + bit]);
      }
      order_[w] = 0;
    }
  }

  const KeepSet& keep_;
  std::int64_t cap_;
  std::int64_t total_rounds_;
  std::vector<std::vector<SourceHit>> hits_;  // per kept vertex
  // The stride's forwarding schedule: sender v broadcasts the source ids
  // pending_[next, end), all at distance pending_dist_, one per round;
  // senders_ is ascending in v.
  struct Sender {
    Vertex v;
    std::size_t next;
    std::size_t end;
  };
  std::vector<Vertex> pending_;
  Dist pending_dist_ = 0;
  std::vector<Sender> senders_;
  // Duplicate test: each source's dense rank (-1 for non-sources, which
  // never circulate), the bitset length in words, per-vertex bitsets
  // (empty until the vertex's list outweighs one) and, per unkept vertex,
  // the ids it heard until then (heard_ stays empty when every vertex is
  // kept). by_rank_ maps a rank back to its source id.
  std::vector<std::int32_t> rank_;
  std::vector<Vertex> by_rank_;
  std::size_t bitset_words_ = 0;
  std::vector<std::vector<std::uint64_t>> seen_;
  std::vector<std::vector<Vertex>> heard_;
  // Stride bookkeeping: fresh_[v] holds the ids v forwards next stride;
  // learners_ collects each v that kept one, once per stride, and a
  // boundary drains them into learnt_. order_ is the boundary's scratch
  // rank bitset, all zero between lists.
  std::vector<std::vector<Vertex>> fresh_;
  Sharded<Vertex> learners_;
  std::vector<Vertex> learnt_;
  std::vector<std::uint64_t> order_;
};

}  // namespace

Dist DetectResult::distance_to(Vertex v, Vertex source) const {
  for (const SourceHit& h : at(v)) {
    if (h.source == source) return h.dist;
  }
  return kInfDist;
}

std::size_t DetectResult::heard_others(Vertex v) const {
  std::size_t count = 0;
  for (const SourceHit& h : at(v)) {
    if (h.source != v) ++count;
  }
  return count;
}

DetectResult detect_congest(Network& net, const std::vector<Vertex>& sources,
                            Dist delta, std::int64_t cap, KeepSet keep) {
  const Vertex n = net.num_vertices();
  for (const Vertex s : sources) check_vertex(n, s, "detect_congest");
  check_keep_set(keep, n, "detect_congest");
  DetectProgram program(n, sources, keep, delta, cap);
  const ScheduleReport report = Scheduler(net).run(program);
  std::vector<std::vector<SourceHit>> hits = program.take_hits();
  return DetectResult(std::move(hits), std::move(keep), report.rounds);
}

}  // namespace usne::congest
