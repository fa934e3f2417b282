#pragma once

// Unified construction API — the one way to build an emulator or spanner.
//
// The paper defines one family of constructions (Algorithm 1, the §3
// CONGEST and fast centralized emulators, the §4 spanner) plus the
// baselines it compares against. This header names each of them in a
// string-keyed registry:
//
//   BuildSpec spec;
//   spec.algorithm = "emulator_congest";          // see usne::algorithms()
//   spec.params = {.kappa = 4, .eps = 0.4, .rho = 0.49};
//   spec.exec.num_threads = 4;
//   BuildOutput out = usne::build(g, spec);
//   out.h().num_edges(); out.alpha; out.beta; out.stats.at("rounds");
//
// A registry entry computes the params type its builder (core/*,
// baselines/*) takes from the ParamSet, with n = g.num_vertices(), calls
// the builder with spec.exec, moves the result into the BuildOutput and
// fills in the StatsMap and the (alpha, beta) guarantee. Tests, benches,
// examples, usne_run, usne_served and perfbench all build through here;
// the builders themselves are called directly only for what a BuildSpec
// cannot say (Algorithm 1's processing order, a hand-edited schedule,
// params computed for another n).

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
/// centralized Algorithm 1 reads {kappa, eps}; the §3/§4 constructions
/// additionally read rho; the randomized baselines read the seed from
/// ExecOptions. The schedule's n is always g.num_vertices().
struct ParamSet {
  int kappa = 4;
  double eps = 0.25;
  double rho = 0.45;

  /// When true, use the paper's §2.2.4/§3.2.4 rescaling (compute_rescaled):
  /// eps is then the *target* multiplicative stretch, not the internal
  /// recurrence parameter. Only supported where the builder's params type
  /// offers it (AlgorithmInfo::supports_rescale); build() throws otherwise.
  bool rescale = false;
};

// ExecOptions, the execution knobs of BuildSpec, is defined with the
// builders that take it (core/cluster.hpp).

/// A complete, serializable description of one build: which algorithm plus
/// all parameters. The unit of dispatch for benches, examples and usne_run.
struct BuildSpec {
  std::string algorithm;
  ParamSet params{};
  ExecOptions exec{};
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
/// ExecOptions::keep_audit_data was set — the full audit bundle
/// (partition snapshots, edge log, per-node local knowledge).
struct BuildOutput {
  std::string algorithm;

  /// The builder's result bundle: H plus phase stats, and the audit data
  /// iff keep_audit_data was requested. Its profile has been moved to
  /// `profile` below.
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
  /// emulator_fast and spanner, which have no scheduler). Empty unless
  /// requested.
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
