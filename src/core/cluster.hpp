#pragma once

// Cluster and partial-partition machinery shared by all SAI constructions,
// the execution options every builder takes, and the per-build bookkeeping
// (edge charging log, phase statistics, partition snapshots, construction
// profile) that the audit module and the benches consume.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/transport.hpp"
#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"

namespace usne {

/// Execution knobs shared by every builder in core/ and baselines/, and
/// carried by usne::build's BuildSpec. Each builder consumes the subset
/// that applies; the rest are ignored (e.g. num_threads for a centralized
/// build).
struct ExecOptions {
  /// Worker lanes for the CONGEST parallel round scheduler (1 = serial,
  /// 0 = hardware concurrency). Counts and outputs are bit-for-bit
  /// identical for any value.
  int num_threads = 1;

  /// Retain partition snapshots and the edge log for auditing. Disable
  /// for large benchmarks.
  bool keep_audit_data = true;

  /// Hub threshold multiplier of the distributed emulator (paper: 2, i.e.
  /// a vertex holding >= 2*deg_i + 2 messages splits). Larger values split
  /// later: fewer, larger superclusters and more per-edge pipeline rounds
  /// (ablation bench E7c). Must be >= 1; the builder throws
  /// std::invalid_argument otherwise.
  int hub_threshold_factor = 2;

  /// Seed for the randomized baselines (emulator_tz06, emulator_en17).
  std::uint64_t seed = 1;

  /// Delivery model for the CONGEST simulator's links
  /// (congest/transport.hpp): Ideal (default), Faulty (seeded per-message
  /// drop/duplicate), or Async (seeded per-message latency). Only the
  /// CONGEST algorithms consume it (AlgorithmInfo::supports_transport);
  /// usne::build rejects a non-ideal model on any other algorithm rather
  /// than silently running the ideal path. Under Faulty/Async the
  /// construction runs its fixed schedule over degraded traffic
  /// (deterministically for a fixed seed at any thread count), which is
  /// the robustness workload, not a correctness claim.
  congest::TransportSpec transport{};

  /// Collect the per-task construction profile (BuildResult::profile).
  /// CONGEST builders report scheduler stage times — deliver/compute/
  /// replay/end_round — per (phase, task); emulator_fast and the
  /// centralized spanner report wall time per (phase, task) and open a
  /// trace span per task; the other centralized builders ignore it.
  /// Measurement only: counts, H and every checksum are bit-identical with
  /// profiling on or off, and the default (off) reads no clocks in the
  /// scheduler or the builder.
  bool profile = false;
};

/// A cluster: a designated center r_C in C plus the member vertices.
struct Cluster {
  Vertex center = -1;
  std::vector<Vertex> members;  // includes center

  std::size_t size() const { return members.size(); }
};

/// How an emulator/spanner edge was inserted — mirrors the paper's charging
/// argument (§2.2.1): interconnection edges are charged to the unpopular
/// center that added them; superclustering edges to the center that joined
/// a new supercluster; buffer-join edges (centralized N_i mechanism) to the
/// buffered center that fell back to its supercluster.
enum class EdgeKind : std::uint8_t {
  kInterconnect,
  kSupercluster,
  kBufferJoin,
  kSpannerPath,
  kGroundPartition,  // [EP01] baseline only
};

const char* edge_kind_name(EdgeKind kind);

/// One logged edge insertion. Duplicate inserts into the WeightedGraph are
/// still logged — the charging audit counts attempted insertions exactly as
/// the paper's analysis does.
struct ChargedEdge {
  Vertex u = -1;
  Vertex v = -1;
  Dist w = 0;
  int phase = -1;
  EdgeKind kind = EdgeKind::kInterconnect;
  Vertex charged_to = -1;
};

/// Per-phase counters reported by the builders.
struct PhaseStats {
  int phase = -1;
  std::int64_t clusters_in = 0;        // |P_i|
  std::int64_t clusters_out = 0;       // |P_{i+1}|
  std::int64_t unclustered = 0;        // |U_i|
  std::int64_t popular = 0;            // number of popular clusters seen
  std::int64_t interconnect_edges = 0;
  std::int64_t supercluster_edges = 0;
  std::int64_t buffer_join_edges = 0;
  std::int64_t hub_events = 0;  // distributed Task 3: vertices that split
  double deg_threshold = 0;
  Dist delta = 0;
  // Distributed builds only:
  std::int64_t rounds = 0;
  std::int64_t rounds_detect = 0;
  std::int64_t rounds_ruling = 0;
  std::int64_t rounds_forest = 0;
  std::int64_t rounds_backtrack = 0;
  std::int64_t rounds_interconnect = 0;
};

/// Full output of a SAI build: the emulator/spanner H plus everything the
/// audits need. The partition snapshots record P_i at the *start* of each
/// phase i (snapshot[i] = P_i), with snapshot[ell+1] = P_{ell+1} (empty for
/// a correct run).
struct BuildResult {
  WeightedGraph h;
  std::vector<PhaseStats> phases;
  std::vector<ChargedEdge> edge_log;
  std::vector<std::vector<Cluster>> partitions;  // P_0 .. P_{ell+1}
  std::vector<int> u_level;     // per vertex: phase i with v in some C in U_i
  std::vector<Vertex> u_center; // per vertex: center of that cluster
  std::int64_t total_rounds = 0;  // distributed builds; 0 otherwise

  /// Construction profile (ExecOptions::profile): one entry per (phase,
  /// task), e.g. "p0.detect". Empty unless requested; usne::build moves it
  /// to BuildOutput::profile.
  std::vector<congest::PhaseProfileEntry> profile;

  std::int64_t interconnect_edges() const;
  std::int64_t supercluster_edges() const;
  std::string summary() const;
};

/// Result of a CONGEST build, emulator or spanner: the audit bundle plus
/// the simulator's metering.
struct DistributedBuildResult {
  BuildResult base;
  congest::NetworkStats net;

  /// Injected-event counters of the delivery model (all zero under Ideal).
  congest::TransportCounters transport;

  /// local[v] = edges (other, weight) that vertex v learned about through
  /// the protocol (emulator only). Every emulator edge (u,v,w) must appear
  /// in local[u] and local[v] with the same weight. Empty for the spanner,
  /// whose edges are their endpoints' own graph edges.
  std::vector<std::vector<std::pair<Vertex, Dist>>> local;
};

/// Builds the singleton partition P_0 = {{v} : v in V}.
std::vector<Cluster> singleton_partition(Vertex n);

/// True if `clusters` form a partial partition of [0, n): members pairwise
/// disjoint, centers belong to their own cluster.
bool is_partial_partition(const std::vector<Cluster>& clusters, Vertex n);

}  // namespace usne
