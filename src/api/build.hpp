#pragma once

// Unified construction API — the single front door to every emulator and
// spanner construction in the repository.
//
// The paper defines one family of constructions; historically the repo
// exposed them as nine unrelated free functions, each with its own
// params/options/result triple, so every bench, example and test
// re-implemented the same dispatch, metering and JSON glue. This header
// replaces that with a string-keyed registry:
//
//   BuildSpec spec;
//   spec.algorithm = "emulator_congest";          // see usne::algorithms()
//   spec.params = {.n = 0, .kappa = 4, .eps = 0.4, .rho = 0.49};
//   spec.exec.num_threads = 4;
//   BuildOutput out = usne::build(g, spec);
//   out.h().num_edges(); out.alpha; out.beta; out.stats.at("rounds");
//
// Every registered algorithm is a *thin adapter* over the corresponding
// legacy builder (core/*, baselines/*): semantics, outputs and the
// round/message/word counts are bit-for-bit identical to calling the free
// function directly (enforced by tests/test_api.cpp and the scripts/check.sh
// registry smoke pass). The legacy functions remain the implementation
// layer; new scenario work (fault injection, async delivery, new workloads)
// plugs into this registry instead of adding a tenth bespoke entry point.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/transport.hpp"
#include "core/cluster.hpp"
#include "graph/graph.hpp"

namespace usne {

/// Unified numeric parameters. Each algorithm consumes the subset it
/// understands (see AlgorithmInfo::uses_rho / uses_seed in describe()):
/// centralized Algorithm 1 reads {n, kappa, eps}; the §3/§4 constructions
/// additionally read rho; the randomized baselines read the seed from
/// ExecOptions.
struct ParamSet {
  /// Size parameter fed to the schedule computation. 0 (the default) means
  /// "use g.num_vertices()" — the common case.
  Vertex n = 0;
  int kappa = 4;
  double eps = 0.25;
  double rho = 0.45;

  /// When true, use the paper's §2.2.4/§3.2.4 rescaling (compute_rescaled):
  /// eps is then the *target* multiplicative stretch, not the internal
  /// recurrence parameter. Only supported where the legacy params type
  /// offers it (AlgorithmInfo::supports_rescale); build() throws otherwise.
  bool rescale = false;
};

/// Execution knobs shared by all constructions. Each algorithm consumes the
/// subset that applies; the rest are ignored (e.g. num_threads for a
/// centralized build).
struct ExecOptions {
  /// Worker lanes for the CONGEST parallel round scheduler (1 = serial,
  /// 0 = hardware concurrency). Counts and outputs are bit-for-bit
  /// identical for any value.
  int num_threads = 1;

  /// Retain partition snapshots / edge logs / per-node knowledge for
  /// auditing. Disable for large benchmarks.
  bool keep_audit_data = true;

  /// Hub threshold multiplier of the distributed emulator (paper: 2).
  int hub_threshold_factor = 2;

  /// Seed for the randomized baselines (emulator_tz06, emulator_en17).
  std::uint64_t seed = 1;

  /// Delivery model for the CONGEST simulator's links
  /// (congest/transport.hpp): Ideal (default), Faulty (seeded per-message
  /// drop/duplicate), or Async (seeded per-message latency). Only the
  /// CONGEST algorithms consume it (AlgorithmInfo::supports_transport);
  /// build() rejects a non-ideal model on any other algorithm rather than
  /// silently running the ideal path. Injected-event counters surface in
  /// BuildOutput::transport and, for non-ideal models, in the StatsMap as
  /// transport_dropped / transport_duplicated / transport_delayed.
  congest::TransportSpec transport{};

  /// Collect the per-task construction profile (BuildOutput::profile),
  /// the `usne_run --profile` view. CONGEST algorithms report scheduler
  /// stage times — deliver/compute/replay/end_round — per (phase, task);
  /// emulator_fast reports wall time per (phase, task) (FastOptions::profile);
  /// the other centralized builds ignore it. Measurement only: counts, H
  /// and every checksum are bit-identical with profiling on or off, and
  /// the default (off) reads no clocks in the scheduler or the builder.
  bool profile = false;
};

/// A complete, serializable description of one build: which algorithm plus
/// all parameters. The unit of dispatch for benches, examples and usne_run.
struct BuildSpec {
  std::string algorithm;
  ParamSet params;
  ExecOptions exec;
};

/// Uniform counters reported by every build (sorted keys, ready for JSON):
/// always "edges", "vertices", "phases", "interconnect_edges",
/// "supercluster_edges"; CONGEST variants add "rounds", "messages", "words".
using StatsMap = std::map<std::string, std::int64_t>;

/// Static metadata of a registered algorithm (usne::describe()).
struct AlgorithmInfo {
  std::string name;
  std::string summary;  // one line, shown by `usne_run --describe`
  std::string kind;     // "emulator" | "spanner"
  std::string model;    // "centralized" | "congest"
  bool deterministic = true;
  bool uses_rho = false;
  bool uses_seed = false;
  bool supports_rescale = false;
  bool baseline = false;  // false for the five paper variants

  /// True when the algorithm runs on the CONGEST simulator and therefore
  /// honours ExecOptions::transport (non-ideal delivery models). build()
  /// rejects non-ideal transports on algorithms without this flag.
  bool supports_transport = false;
};

/// Output of usne::build(): the constructed graph H, the computed
/// (alpha, beta) stretch guarantee, the uniform StatsMap, and — when
/// ExecOptions::keep_audit_data was set — the full legacy audit bundle
/// (partition snapshots, edge log, per-node local knowledge).
struct BuildOutput {
  std::string algorithm;

  /// The legacy result bundle: H plus phase stats, and the audit data iff
  /// keep_audit_data was requested. Identical to what the corresponding
  /// free function returns.
  BuildResult result;

  /// Round/message/word metering (CONGEST variants; zeros otherwise).
  congest::NetworkStats net;

  /// Injected-event counters of the delivery model (all zero under the
  /// Ideal transport and for centralized algorithms).
  congest::TransportCounters transport;

  /// Per-node local edge knowledge (CONGEST emulator only; empty otherwise).
  std::vector<std::vector<std::pair<Vertex, Dist>>> local;

  /// Construction profile (ExecOptions::profile): labeled per-(phase, task)
  /// scheduler stage times, e.g. "p0.detect" (wall time only for
  /// emulator_fast, which has no scheduler). Empty unless requested.
  std::vector<congest::PhaseProfileEntry> profile;

  /// True when `net` is meaningful (the algorithm ran on the simulator).
  bool distributed = false;

  /// Computed stretch guarantee d_H <= alpha * d_G + beta. The randomized
  /// baselines carry no deterministic per-instance guarantee
  /// (has_guarantee = false, alpha = 0, beta = 0) — exactly the gap the
  /// paper closes.
  bool has_guarantee = false;
  double alpha = 0;
  Dist beta = 0;

  /// Human-readable schedule description (params.describe() where
  /// available).
  std::string params_description;

  StatsMap stats;

  /// The constructed emulator/spanner.
  const WeightedGraph& h() const noexcept { return result.h; }

  /// Both-endpoints-know check for the CONGEST emulator (paper §3.1's
  /// distinctive obligation). Trivially true for every other variant
  /// (spanner edges are the endpoints' own incident graph edges;
  /// centralized builds have no notion of local knowledge).
  bool endpoints_consistent() const;

  /// One-line JSON record of this build:
  /// {"algo": ..., "alpha": ..., "beta": ..., "stats": {...}} with stats
  /// keys in sorted order — the uniform format consumed by scripts/check.sh.
  std::string stats_json() const;
};

/// Names of all registered algorithms, sorted.
std::vector<std::string> algorithms();

/// True if `name` is a registered algorithm.
bool is_registered(const std::string& name);

/// Metadata for a registered algorithm. Throws std::invalid_argument with
/// the list of known names when `name` is not registered.
const AlgorithmInfo& describe(const std::string& name);

/// Builds `spec.algorithm` on g. Throws std::invalid_argument on an unknown
/// name or an unsupported rescale request; parameter-validation errors of
/// the underlying params types propagate unchanged.
BuildOutput build(const Graph& g, const BuildSpec& spec);

}  // namespace usne
