#pragma once

// The superclustering-and-interconnection (SAI) phase loop, once per
// execution model. Every §3 and §4 construction runs phases i = 0..ell over
// a partial partition P_i, starting from the singletons P_0:
//   Task 1  source detection (Algorithm 2 in CONGEST) from P_i's centers
//           to depth delta_i, capped at deg_i + 1 sources; a center that
//           hears >= deg_i others is popular;
//   Task 2  a ruling set S_i on the popular centers, separation 2*delta_i;
//   Task 3  a BFS forest from S_i to depth rul_i + delta_i, whose trees
//           gather the clusters they span into P_{i+1} (superclustering);
//   then    the clusters left over, U_i, interconnect with the centers
//           they heard in Task 1.
// Phase ell runs only Task 1 and the interconnection. The emulator and the
// spanner differ only in how a superclustering join and an interconnection
// hit enter H: the emulator inserts a weighted edge (u, v, d), the spanner
// a u-v path of G of length <= d (§4). Each loop below owns everything
// else: the schedule, the tasks, PhaseStats, U_i membership, the partition
// snapshots and the construction profile. A construction passes in only
// its own steps, as callables: Task 1's keep set, the vertices whose
// detection lists are read; centrally, how a join and a hit enter H; in
// CONGEST, where inserting an edge takes messages, the rest of Task 3
// after the forest and the interconnection.
//
//   run_central_phases  (§3.3)  build_emulator_fast, build_spanner
//   run_congest_phases  (§3.1)  build_emulator_distributed,
//                               build_spanner_congest

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "congest/bfs_forest.hpp"
#include "congest/detect.hpp"
#include "congest/network.hpp"
#include "congest/ruling_set.hpp"
#include "core/cluster.hpp"
#include "core/params.hpp"
#include "core/ruling_central.hpp"
#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "path/bfs.hpp"
#include "path/source_detection.hpp"
#include "util/mem.hpp"
#include "util/timer.hpp"

namespace usne {

/// "p<phase>.<task>", the label of one construction-profile entry.
inline std::string profile_label(int phase, const char* task) {
  std::string label = "p";
  label += std::to_string(phase);
  label += '.';
  label += task;
  return label;
}

/// The peak RSS to record at a profile cut: the process's VmHWM, but never
/// below the previous entry's, since consecutive VmHWM reads have been seen
/// to fall by a few KiB. The column is then the high-water mark it claims.
inline double profile_peak_rss_mb(
    const std::vector<congest::PhaseProfileEntry>& profile) {
  const double now = util::peak_rss_mb();
  return profile.empty() ? now : std::max(profile.back().peak_rss_mb, now);
}

/// Wall time per (phase, task) for the centralized loop, which has no
/// scheduler to split it: each cut() closes the task that ran since the
/// previous cut into one PhaseProfileEntry with only StageTimes::wall_s
/// and the peak RSS filled in. Without a sink it reads neither.
class TaskClock {
 public:
  explicit TaskClock(std::vector<congest::PhaseProfileEntry>* sink) : sink_(sink) {
    if (sink_ != nullptr) mark_ = MonoClock::now();
  }

  void cut(int phase, const char* task) {
    if (sink_ == nullptr) return;
    const MonoClock::time_point now = MonoClock::now();
    congest::PhaseProfileEntry entry;
    entry.label = profile_label(phase, task);
    entry.times.wall_s = elapsed_s(mark_, now);
    entry.peak_rss_mb = profile_peak_rss_mb(*sink_);
    sink_->push_back(std::move(entry));
    mark_ = now;
  }

 private:
  std::vector<congest::PhaseProfileEntry>* sink_;
  MonoClock::time_point mark_{};
};

/// One SAI build in progress. The phase loop keeps it across phases and
/// hands it to the construction's steps, which read the phase being run and
/// add to H, the edge log, P_{i+1} and the phase's stats.
struct SaiBuild {
  /// Starts from P_0 with an empty H on g's vertices. Throws
  /// std::invalid_argument when the params were computed for another n.
  SaiBuild(const Graph& graph, Vertex params_n, const ExecOptions& options);

  const Graph& g;
  const ExecOptions& exec;
  /// out.base is the build record; the CONGEST loop also fills net and
  /// transport, and the CONGEST emulator local.
  DistributedBuildResult out;

  std::vector<Cluster> current;          // P_i
  std::vector<std::int32_t> cluster_of;  // center -> index in current, else -1
  std::vector<Vertex> centers;           // P_i's centers, ascending
  std::vector<bool> superclustered;      // per center: joined P_{i+1}
  std::vector<Cluster> next;             // P_{i+1}

  // The phase being run.
  int phase = -1;
  bool last = false;     // phase ell: no superclustering
  double deg = 0;        // deg_i, the popularity threshold
  Dist delta = 0;        // delta_i, the detection depth
  Dist depth = 0;        // rul_i + delta_i, the forest depth
  std::int64_t cap = 0;  // ceil(deg_i) + 1, the detection cap
  PhaseStats stats;

  /// Opens phase i: its schedule entries, fresh stats, and P_i's centers
  /// indexed by cluster_of.
  void begin_phase(int i, const PhaseSchedule& schedule,
                   const std::vector<Dist>& rul);

  bool is_center(Vertex v) const {
    const std::int32_t c = cluster_of[static_cast<std::size_t>(v)];
    return c != -1 && current[static_cast<std::size_t>(c)].center == v;
  }

  /// Inserts (u, v, w) into H and, when audit data is kept, logs it with
  /// this phase, its kind and the center it is charged to.
  void log_edge(Vertex u, Vertex v, Dist w, EdgeKind kind, Vertex charged);

  /// Opens a supercluster of P_{i+1} centered at `center`.
  Cluster& new_super(Vertex center);

  /// Moves the cluster centered at `center` into `super`.
  void join(Cluster& super, Vertex center);

  /// P_{i+1} as one supercluster per tree, centered at its root, in `roots`
  /// order: every center c with root_of[c] != -1 joins its root's.
  void join_trees(const std::vector<Vertex>& roots,
                  const std::vector<Vertex>& root_of);

  /// U_i: the centers that joined no supercluster, ascending. Records the
  /// level and center of each of their members.
  std::vector<Vertex> unclustered();

  /// Closes the phase: its stats, P_{i+1} as the next P_i, its snapshot.
  void end_phase();
};

/// A CONGEST build: SaiBuild plus the network every task runs on, with
/// ExecOptions::num_threads scheduler lanes and ExecOptions::transport.
struct CongestBuild : SaiBuild {
  CongestBuild(const Graph& graph, Vertex params_n, const ExecOptions& options);

  congest::Network net;
};

/// The §3.3 loop: every task runs centrally on g. `keep(b)` returns Task
/// 1's KeepSet: the vertices whose detection lists are stored, P_i's
/// centers (whose lists the loop reads) among them. `join(b, root, c,
/// forest)` inserts the superclustering of a center c != root into the
/// tree rooted at `root` (a MultiSourceBfsResult); `hit(b, c, hit, detect)`
/// inserts the interconnection of the U_i center c with hit.source (a
/// SourceHit of the SourceDetection `detect`). Each counts what it adds in
/// b.stats. With exec.profile, records wall time and peak RSS per (phase,
/// task) and opens the core.* trace span of each task.
template <typename Params, typename Keep, typename Join, typename Hit>
BuildResult run_central_phases(const Graph& g, const Params& params,
                               const ExecOptions& exec, Keep keep, Join join,
                               Hit hit) {
  SaiBuild b(g, params.n, exec);
  TaskClock clock(exec.profile ? &b.out.base.profile : nullptr);
  for (int i = 0; i <= params.schedule.ell(); ++i) {
    b.begin_phase(i, params.schedule, params.rul);

    SourceDetection detect;
    std::vector<Vertex> popular;
    {
      USNE_TRACE_SPAN("core.detect");
      detect = detect_sources(g, b.centers, b.delta,
                              static_cast<std::size_t>(b.cap), keep(b));
      for (const Vertex c : b.centers) {
        std::size_t others = 0;
        for (const SourceHit& h : detect.at(c)) {
          if (h.source != c) ++others;
        }
        if (static_cast<double>(others) + 1e-9 >= b.deg) popular.push_back(c);
      }
    }
    clock.cut(i, "detect");
    b.stats.popular = static_cast<std::int64_t>(popular.size());

    if (!b.last && !popular.empty()) {
      CentralRulingSet ruling;
      {
        USNE_TRACE_SPAN("core.ruling");
        ruling = ruling_set_central(g, popular, 2 * b.delta, params.ruling_base);
      }
      clock.cut(i, "ruling");

      // One supercluster per tree (no hub splitting in the centralized
      // simulation, §3.3).
      USNE_TRACE_SPAN("core.forest");
      const MultiSourceBfsResult forest =
          multi_source_bfs(g, ruling.members, b.depth);
      b.join_trees(ruling.members, forest.source);
      for (const Vertex c : b.centers) {
        const Vertex root = forest.source[static_cast<std::size_t>(c)];
        if (root != -1 && root != c) join(b, root, c, forest);
      }
      clock.cut(i, "forest");
    }

    // U_i's detection lists are exact: they and their neighbours are
    // unpopular (Lemma 3.4).
    {
      USNE_TRACE_SPAN("core.interconnect");
      for (const Vertex c : b.unclustered()) {
        for (const SourceHit& h : detect.at(c)) {
          if (h.source != c) hit(b, c, h, detect);
        }
      }
    }
    b.end_phase();
    clock.cut(i, "interconnect");
  }
  assert(b.current.empty());
  assert(std::ranges::count(b.out.base.u_level, -1) == 0);
  return std::move(b.out.base);
}

/// The CONGEST loop: every task runs on b.net, metered per task in the
/// phase's rounds_* stats. `keep(b)` returns Task 1's KeepSet, as in
/// run_central_phases. `task3(b, ruling, forest)` runs Task 3 after the
/// forest (a congest::BfsForest rooted at the congest::RulingSet's
/// members): it forms b.next, marks b.superclustered and inserts the
/// superclustering edges. Its rounds count as rounds_backtrack and its
/// profile label is `task3_label`. `interconnect(b, detect, u_centers)`
/// interconnects U_i from Task 1's congest::DetectResult. With
/// exec.profile, records the scheduler stage times and the peak RSS per
/// (phase, task).
template <typename Params, typename Keep, typename Task3, typename Interconnect>
DistributedBuildResult run_congest_phases(CongestBuild& b, const Params& params,
                                          Keep keep, const char* task3_label,
                                          Task3 task3, Interconnect interconnect) {
  // Every scheduler run accumulates its stage times into one sink on the
  // network; cut() closes a task: it returns the task's rounds and, when
  // profiling, records its stage-time delta.
  congest::StageTimes prof_acc;
  congest::StageTimes prof_mark;
  if (b.exec.profile) b.net.set_profile_sink(&prof_acc);
  std::int64_t round_mark = b.net.stats().rounds;
  const auto cut = [&](const char* task) {
    const std::int64_t rounds = b.net.stats().rounds - round_mark;
    round_mark += rounds;
    if (b.exec.profile) {
      std::vector<congest::PhaseProfileEntry>& profile = b.out.base.profile;
      profile.push_back({profile_label(b.phase, task), prof_acc - prof_mark,
                         profile_peak_rss_mb(profile)});
      prof_mark = prof_acc;
    }
    return rounds;
  };

  for (int i = 0; i <= params.schedule.ell(); ++i) {
    b.begin_phase(i, params.schedule, params.rul);

    const congest::DetectResult detect =
        congest::detect_congest(b.net, b.centers, b.delta, b.cap, keep(b));
    b.stats.rounds_detect = cut("detect");
    std::vector<Vertex> popular;
    for (const Vertex c : b.centers) {
      if (static_cast<double>(detect.heard_others(c)) + 1e-9 >= b.deg) {
        popular.push_back(c);
      }
    }
    b.stats.popular = static_cast<std::int64_t>(popular.size());

    if (!b.last && !popular.empty()) {
      const congest::RulingSet ruling = congest::compute_ruling_set(
          b.net, popular, 2 * b.delta, params.ruling_base);
      b.stats.rounds_ruling = cut("ruling");
      const congest::BfsForest forest =
          congest::build_bfs_forest(b.net, ruling.members, b.depth);
      b.stats.rounds_forest = cut("forest");
      task3(b, ruling, forest);
      b.stats.rounds_backtrack = cut(task3_label);
    }

    interconnect(b, detect, b.unclustered());
    b.stats.rounds_interconnect = cut("interconnect");
    b.end_phase();
  }
  assert(b.current.empty());
  b.net.set_profile_sink(nullptr);
  b.out.base.total_rounds = b.net.stats().rounds;
  b.out.net = b.net.stats();
  b.out.transport = b.net.transport().counters();
  return std::move(b.out);
}

}  // namespace usne
