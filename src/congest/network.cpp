#include "congest/network.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <thread>

#include "congest/transport.hpp"
#include "util/invariant.hpp"
#include "util/thread_pool.hpp"

namespace usne::congest {
namespace {

/// A round goes by pull when its broadcasts cover at least 1/kPullDensity
/// of the 2|E| directed edges (and the other conditions in network.hpp
/// hold). The pull fill reads the stamp of every directed edge's sender,
/// whether or not it broadcast, so a sparse round is left to the push
/// path. Wall-clock only: both paths deliver the same inboxes.
constexpr std::int64_t kPullDensity = 4;

/// A round's receivers are put in ascending order by one scan over all n
/// vertices instead of a sort once at least n / kDenseReceivers of them
/// receive: the O(n) scan then beats the O(r log r) sort. Wall-clock only;
/// the order is the same either way.
constexpr std::size_t kDenseReceivers = 32;

void check_word_cap(const Message& msg) {
  if (msg.size < 1 || msg.size > kMaxWords) {
    throw CongestViolation("message exceeds O(1)-word cap: " +
                           std::to_string(msg.size) + " words");
  }
}

[[noreturn]] void throw_second_message(Vertex from, Vertex to,
                                       std::int64_t round) {
  throw CongestViolation("second message on edge (" + std::to_string(from) +
                         "," + std::to_string(to) + ") in round " +
                         std::to_string(round));
}

}  // namespace

Network::Network(const Graph& g)
    : graph_(&g),
      broadcast_(static_cast<std::size_t>(g.num_vertices())),
      send_round_(static_cast<std::size_t>(g.num_vertices()), -1),
      inbox_begin_(static_cast<std::size_t>(g.num_vertices()), 0),
      inbox_count_(static_cast<std::size_t>(g.num_vertices()), 0),
      recv_count_(static_cast<std::size_t>(g.num_vertices()), 0),
      edge_round_stamp_(static_cast<std::size_t>(g.num_edges()) * 2, -1),
      model_(make_delivery_model(TransportSpec{})) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument(
        "Network requires a non-empty graph (n >= 1 processors)");
  }
}

Network::~Network() = default;
Network::Network(Network&&) noexcept = default;
Network& Network::operator=(Network&&) noexcept = default;

void Network::set_execution_threads(int threads) {
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(threads, 1);
  if (threads != exec_threads_) {
    pool_.reset();  // rebuilt lazily at the new width
    exec_threads_ = threads;
  }
}

util::ThreadPool* Network::thread_pool() {
  if (exec_threads_ <= 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(exec_threads_);
  return pool_.get();
}

void Network::configure_transport(const TransportSpec& spec) {
  configure_transport(make_delivery_model(spec));
  builtin_ideal_ = spec.model == TransportModel::kIdeal;
}

void Network::configure_transport(std::unique_ptr<DeliveryModel> model) {
  if (model == nullptr) {
    throw std::invalid_argument("configure_transport: null delivery model");
  }
  if (pending_messages() + in_flight() != 0) {
    throw std::logic_error(
        "configure_transport requires a quiescent network (messages are "
        "staged or in flight)");
  }
  // Fold the retiring model's injected-event counters into the network-level
  // base so the conservation ledger spans model swaps.
  retired_dropped_ += model_->counters().dropped;
  retired_duplicated_ += model_->counters().duplicated;
  model_ = std::move(model);
  builtin_ideal_ = false;
}

std::int64_t Network::in_flight() const noexcept {
  return model_->in_flight();
}

std::int64_t Network::directed_edge_id(Vertex from, Vertex to) const {
  const auto nbrs = graph_->neighbors(from);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
  if (it == nbrs.end() || *it != to) return -1;
  // Directed edge slots are laid out as the CSR adjacency itself.
  return graph_->csr_offset(from) + (it - nbrs.begin());
}

void Network::stage_send(std::int64_t eid, Vertex from, Vertex to,
                         const Message& msg) {
  auto& stamp = edge_round_stamp_[static_cast<std::size_t>(eid)];
  if (stamp == stats_.rounds) throw_second_message(from, to, stats_.rounds);
  stamp = stats_.rounds;
  send_round_[static_cast<std::size_t>(from)] = stats_.rounds;

  outgoing_.push_back({from, to, msg});
  ++pending_sends_;
  ++stats_.messages;
  stats_.words += msg.size;
}

void Network::send(Vertex from, Vertex to, const Message& msg) {
  check_word_cap(msg);
  check_sender(*graph_, from, "send");
  const std::int64_t eid = directed_edge_id(from, to);
  if (eid < 0) {
    throw CongestViolation("send along non-edge (" + std::to_string(from) +
                           "," + std::to_string(to) + ")");
  }
  // A broadcast from `from` this round already holds every edge of its row.
  if (broadcast_[static_cast<std::size_t>(from)].round == stats_.rounds) {
    throw_second_message(from, to, stats_.rounds);
  }
  stage_send(eid, from, to, msg);
}

void Network::broadcast(Vertex from, const Message& msg) {
  check_sender(*graph_, from, "broadcast");
  const auto nbrs = graph_->neighbors(from);
  if (nbrs.empty()) return;
  check_word_cap(msg);
  const auto sf = static_cast<std::size_t>(from);
  Broadcast& b = broadcast_[sf];
  // A second broadcast collides on the row's first edge.
  if (b.round == stats_.rounds) {
    throw_second_message(from, nbrs[0], stats_.rounds);
  }
  if (send_round_[sf] == stats_.rounds) {
    // `from` already sent on some edge of its row this round: stage one send
    // per slot up to that edge, which throws there, exactly as one send per
    // neighbour would.
    const std::int64_t first = graph_->csr_offset(from);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      stage_send(first + static_cast<std::int64_t>(i), from, nbrs[i], msg);
    }
    return;
  }
  b.round = stats_.rounds;
  b.msg = msg;
  outgoing_.push_back({from, kAllNeighbours, msg});
  const auto deg = static_cast<std::int64_t>(nbrs.size());
  pending_broadcast_messages_ += deg;
  stats_.messages += deg;
  stats_.words += deg * msg.size;
}

bool Network::pull_round() const noexcept {
  return builtin_ideal_ && pending_sends_ == 0 &&
         pending_broadcast_messages_ > 0 &&
         pending_broadcast_messages_ * kPullDensity >=
             graph_->csr_offset(graph_->num_vertices());
}

void Network::retire_delivery() {
  // Only delivered vertices have non-zero counts, so the reset touches
  // exactly the prior traffic.
  for (const Vertex v : delivered_) inbox_count_[static_cast<std::size_t>(v)] = 0;
  delivered_.clear();
}

void Network::open_pull() {
  retire_delivery();
  const auto directed = static_cast<std::size_t>(
      graph_->csr_offset(graph_->num_vertices()));
  if (arena_.size() < directed) arena_.resize(directed);
}

std::int64_t Network::pull_fill(Vertex begin, Vertex end,
                                std::vector<Vertex>& receivers) {
  // Under Ideal a broadcast reaches every neighbour next round, so v's inbox
  // is (w, msg_w) for every neighbour w that broadcast, in row order, which
  // is ascending sender order. It is written at v's own row offset.
  const std::int64_t round = stats_.rounds;
  const Broadcast* const table = broadcast_.data();
  std::int64_t filled = 0;
  for (Vertex v = begin; v < end; ++v) {
    const std::int64_t row = graph_->csr_offset(v);
    Received* const first = arena_.data() + row;
    Received* last = first;
    for (const Vertex w : graph_->neighbors(v)) {
      const Broadcast& b = table[static_cast<std::size_t>(w)];
      if (b.round == round) *last++ = {w, b.msg};
    }
    if (last != first) {
      const auto sv = static_cast<std::size_t>(v);
      inbox_begin_[sv] = row;
      inbox_count_[sv] = last - first;
      filled += last - first;
      receivers.push_back(v);
    }
  }
  return filled;
}

void Network::close_pull(std::span<const std::vector<Vertex>> chunks,
                         std::int64_t messages) {
  for (const std::vector<Vertex>& chunk : chunks) {
    delivered_.insert(delivered_.end(), chunk.begin(), chunk.end());
  }
  ++pull_rounds_;
  close_round(messages);
}

void Network::expand_records() {
  staged_.clear();
  for (const Outgoing& o : outgoing_) {
    if (o.to != kAllNeighbours) {
      staged_.push_back({o.to, {o.from, o.msg}});
      continue;
    }
    for (const Vertex to : graph_->neighbors(o.from)) {
      staged_.push_back({to, {o.from, o.msg}});
    }
  }
}

void Network::advance_round() {
  if (pull_round()) {
    // The whole round is filled before any caller reads an inbox (see the
    // file comment).
    open_pull();
    close_pull({}, pull_fill(0, graph_->num_vertices(), delivered_));
    return;
  }
  retire_delivery();
  // Transport policy: the model turns this round's staged sends into the
  // batch delivered next round (Ideal passes everything through; Faulty
  // drops/duplicates; Async files by drawn latency and surfaces the
  // messages that are due).
  expand_records();
  deliver_.clear();
  model_->collect(stats_.rounds, staged_, deliver_);
  scatter_serial();
  close_round(static_cast<std::int64_t>(deliver_.size()));
}

void Network::close_round(std::int64_t messages) {
  delivered_messages_ = messages;
  outgoing_.clear();
  pending_sends_ = 0;
  pending_broadcast_messages_ = 0;
  delivered_total_ += delivered_messages_;

  // Message conservation across the Network / DeliveryModel handoff: every
  // send is eventually delivered, dropped, or still riding the transport,
  // and every extra delivery is an accounted duplicate. A model, or a pull
  // fill, that loses or invents messages without counting them breaks this
  // ledger here, in the round it happens.
  USNE_AUDIT(inv::Category::kTransport,
             stats_.messages + retired_duplicated_ +
                     model_->counters().duplicated ==
                 delivered_total_ + retired_dropped_ +
                     model_->counters().dropped + model_->in_flight(),
             "staged != delivered + dropped + in_flight (sent " +
                 std::to_string(stats_.messages) + ", delivered " +
                 std::to_string(delivered_total_) + ", dropped " +
                 std::to_string(retired_dropped_ +
                                model_->counters().dropped) +
                 ", duplicated " +
                 std::to_string(retired_duplicated_ +
                                model_->counters().duplicated) +
                 ", in flight " + std::to_string(model_->in_flight()) + ")");

  // Scatter conservation: the arena's per-receiver runs must account for
  // exactly the batch delivered.
  USNE_AUDIT(inv::Category::kTransport,
             [&] {
               std::int64_t in_runs = 0;
               for (const Vertex v : delivered_) {
                 in_runs += inbox_count_[static_cast<std::size_t>(v)];
               }
               return in_runs == delivered_messages_;
             }(),
             "delivery arena runs do not sum to the batch size " +
                 std::to_string(delivered_messages_));
  ++stats_.rounds;
}

void Network::scatter_serial() {
  // Counting-sort the batch into the delivery arena: receivers in
  // ascending order, one contiguous run each.
  for (const Staged& p : deliver_) {
    if (recv_count_[static_cast<std::size_t>(p.to)]++ == 0) {
      delivered_.push_back(p.to);
    }
  }
  const std::size_t n = recv_count_.size();
  if (delivered_.size() * kDenseReceivers < n) {
    std::sort(delivered_.begin(), delivered_.end());
  } else {
    delivered_.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (recv_count_[v] != 0) delivered_.push_back(static_cast<Vertex>(v));
    }
  }
  std::int64_t offset = 0;
  for (const Vertex v : delivered_) {
    inbox_begin_[static_cast<std::size_t>(v)] = offset;
    offset += recv_count_[static_cast<std::size_t>(v)];
  }
  if (arena_.size() < deliver_.size()) arena_.resize(deliver_.size());
  for (const Staged& p : deliver_) {
    const auto to = static_cast<std::size_t>(p.to);
    arena_[static_cast<std::size_t>(inbox_begin_[to] + inbox_count_[to]++)] =
        p.rcv;
  }
  // Deterministic processing order for receivers: sort each run by sender.
  // Unique senders make a plain (allocation-free) sort deterministic.
  // Duplicates and multi-round batches repeat senders: stability keeps the
  // deterministic batch order (original before copy, earlier staging round
  // first) within equal senders.
  const bool unique_senders = model_->unique_senders_per_round();
  const auto by_sender = [](const Received& a, const Received& b) {
    return a.from < b.from;
  };
  for (const Vertex v : delivered_) {
    const auto sv = static_cast<std::size_t>(v);
    Received* const first = arena_.data() + inbox_begin_[sv];
    Received* const last = first + inbox_count_[sv];
    if (unique_senders) {
      std::sort(first, last, by_sender);
    } else {
      std::stable_sort(first, last, by_sender);
    }
    recv_count_[sv] = 0;
  }
}

void Network::advance_rounds(std::int64_t k) {
  for (std::int64_t i = 0; i < k; ++i) advance_round();
}

}  // namespace usne::congest
