#include "api/build.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baselines/en17_emulator.hpp"
#include "baselines/ep01_emulator.hpp"
#include "baselines/tz06_emulator.hpp"
#include "core/emulator_centralized.hpp"
#include "core/emulator_distributed.hpp"
#include "core/emulator_fast.hpp"
#include "core/params.hpp"
#include "core/spanner.hpp"
#include "core/spanner_distributed.hpp"
#include "util/invariant.hpp"

namespace usne {
namespace {

using BuildFn =
    std::function<BuildOutput(const Graph&, const BuildSpec&, const AlgorithmInfo&)>;

struct Entry {
  AlgorithmInfo info;
  BuildFn fn;
};

CentralizedParams central_params(const Graph& g, const ParamSet& p) {
  const Vertex n = g.num_vertices();
  return p.rescale ? CentralizedParams::compute_rescaled(n, p.kappa, p.eps)
                   : CentralizedParams::compute(n, p.kappa, p.eps);
}

DistributedParams dist_params(const Graph& g, const ParamSet& p) {
  const Vertex n = g.num_vertices();
  return p.rescale
             ? DistributedParams::compute_rescaled(n, p.kappa, p.rho, p.eps)
             : DistributedParams::compute(n, p.kappa, p.rho, p.eps);
}

SpannerParams spanner_params(const Graph& g, const ParamSet& p) {
  return SpannerParams::compute(g.num_vertices(), p.kappa, p.rho, p.eps);
}

/// Moves a builder's result into the uniform output. No copies: the
/// registry must add nothing to a build's cost.
BuildOutput pack(const AlgorithmInfo& info, BuildResult&& r) {
  BuildOutput out;
  out.algorithm = info.name;
  out.result = std::move(r);
  out.profile = std::move(out.result.profile);
  out.stats["edges"] = out.result.h.num_edges();
  out.stats["vertices"] = out.result.h.num_vertices();
  out.stats["phases"] = static_cast<std::int64_t>(out.result.phases.size());
  out.stats["interconnect_edges"] = out.result.interconnect_edges();
  out.stats["supercluster_edges"] = out.result.supercluster_edges();
  return out;
}

/// The same for a CONGEST build, plus its metering. The delivery model's
/// injected-event counters reach the StatsMap only for non-ideal models,
/// so the Ideal StatsMap stays bit-identical to the pre-transport one.
BuildOutput pack(const AlgorithmInfo& info, DistributedBuildResult&& r,
                 const congest::TransportSpec& transport) {
  BuildOutput out = pack(info, std::move(r.base));
  out.distributed = true;
  out.net = r.net;
  out.stats["rounds"] = r.net.rounds;
  out.stats["messages"] = r.net.messages;
  out.stats["words"] = r.net.words;
  out.transport = r.transport;
  if (transport.model != congest::TransportModel::kIdeal) {
    out.stats["transport_dropped"] = r.transport.dropped;
    out.stats["transport_duplicated"] = r.transport.duplicated;
    out.stats["transport_delayed"] = r.transport.delayed;
  }
  out.local = std::move(r.local);
  return out;
}

template <typename Params>
BuildOutput with_guarantee(BuildOutput out, const Params& params) {
  out.has_guarantee = true;
  out.alpha = params.schedule.alpha_bound();
  out.beta = params.schedule.beta_bound();
  out.params_description = params.describe();
  return out;
}

const std::vector<Entry>& registry() {
  static const std::vector<Entry> table = [] {
    std::vector<Entry> t;

    // --- the five paper variants -------------------------------------
    t.push_back(
        {{"emulator_centralized",
          "Algorithm 1 (paper SS2): exact ultra-sparse emulator, <= n^(1+1/kappa)",
          "emulator", "centralized", /*deterministic=*/true, /*uses_rho=*/false,
          /*uses_seed=*/false, /*supports_rescale=*/true, /*baseline=*/false},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = central_params(g, s.params);
           return with_guarantee(
               pack(info, build_emulator_centralized(g, params, s.exec)), params);
         }});

    t.push_back(
        {{"emulator_fast",
          "SS3.3 fast centralized simulation: O~(|E| n^rho) per phase",
          "emulator", "centralized", true, /*uses_rho=*/true, false,
          /*supports_rescale=*/true, false},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = dist_params(g, s.params);
           return with_guarantee(
               pack(info, build_emulator_fast(g, params, s.exec)), params);
         }});

    t.push_back(
        {{"emulator_congest",
          "SS3.1 CONGEST construction: O(beta n^rho) rounds, both endpoints know",
          "emulator", "congest", true, /*uses_rho=*/true, false,
          /*supports_rescale=*/true, false, /*supports_transport=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = dist_params(g, s.params);
           return with_guarantee(
               pack(info, build_emulator_distributed(g, params, s.exec),
                    s.exec.transport),
               params);
         }});

    t.push_back(
        {{"spanner",
          "SS4 near-additive spanner ([EN17a] degree sequence), subgraph of G",
          "spanner", "centralized", true, /*uses_rho=*/true, false, false,
          false},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = spanner_params(g, s.params);
           return with_guarantee(pack(info, build_spanner(g, params, s.exec)),
                                 params);
         }});

    t.push_back(
        {{"spanner_congest",
          "SS4 spanner in CONGEST: mark-upcast superclustering, no hubs",
          "spanner", "congest", true, /*uses_rho=*/true, false, false, false,
          /*supports_transport=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = spanner_params(g, s.params);
           return with_guarantee(
               pack(info, build_spanner_congest(g, params, s.exec),
                    s.exec.transport),
               params);
         }});

    // --- the four baselines ------------------------------------------
    // [EM19] is the SS4 path-insertion skeleton driven by the SS3 degree
    // sequence: the spanner builders with DistributedParams.
    t.push_back(
        {{"spanner_em19",
          "[EM19] baseline: SS4 skeleton with the SS3 degree sequence, "
          "O(beta n^(1+1/kappa)) edges",
          "spanner", "centralized", true, /*uses_rho=*/true, false,
          /*supports_rescale=*/true, /*baseline=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = dist_params(g, s.params);
           return with_guarantee(pack(info, build_spanner(g, params, s.exec)),
                                 params);
         }});

    t.push_back(
        {{"spanner_congest_em19",
          "[EM19] baseline in CONGEST (round-for-round comparison)",
          "spanner", "congest", true, /*uses_rho=*/true, false,
          /*supports_rescale=*/true, /*baseline=*/true,
          /*supports_transport=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = dist_params(g, s.params);
           return with_guarantee(
               pack(info, build_spanner_congest(g, params, s.exec),
                    s.exec.transport),
               params);
         }});

    t.push_back(
        {{"emulator_ep01",
          "[EP01] baseline: ground partition forces >= 2n - O(1) edges",
          "emulator", "centralized", true, false, false,
          /*supports_rescale=*/true, /*baseline=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = central_params(g, s.params);
           return with_guarantee(pack(info, build_emulator_ep01(g, params)),
                                 params);
         }});

    t.push_back(
        {{"emulator_tz06",
          "[TZ06] baseline: randomized sampling, O(n^(1+1/kappa)) expected",
          "emulator", "centralized", /*deterministic=*/false, false,
          /*uses_seed=*/true, false, /*baseline=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           auto out = pack(info, build_emulator_tz06(g, s.params.kappa, s.exec.seed));
           std::ostringstream desc;
           desc << "tz06: n=" << g.num_vertices() << " kappa=" << s.params.kappa
                << " seed=" << s.exec.seed << " (randomized, no per-instance "
                << "guarantee)";
           out.params_description = desc.str();
           return out;
         }});

    t.push_back(
        {{"emulator_en17",
          "[EN17a] baseline: randomized linear-size, no deterministic bound",
          "emulator", "centralized", /*deterministic=*/false, false,
          /*uses_seed=*/true, false, /*baseline=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           auto out = pack(info, build_emulator_en17(g, s.params.kappa,
                                                     s.params.eps, s.exec.seed));
           std::ostringstream desc;
           desc << "en17: n=" << g.num_vertices() << " kappa=" << s.params.kappa
                << " eps=" << s.params.eps << " seed=" << s.exec.seed
                << " (randomized, no per-instance guarantee)";
           out.params_description = desc.str();
           return out;
         }});

    return t;
  }();
  return table;
}

const Entry& find_entry(const std::string& name) {
  for (const Entry& e : registry()) {
    if (e.info.name == name) return e;
  }
  std::ostringstream msg;
  msg << "unknown algorithm '" << name << "'; registered:";
  for (const std::string& known : algorithms()) msg << ' ' << known;
  throw std::invalid_argument(msg.str());
}

}  // namespace

bool BuildOutput::endpoints_consistent() const {
  if (local.empty()) return true;
  for (const WeightedEdge& e : result.h.edges()) {
    const auto knows = [&](Vertex at, Vertex other) {
      for (const auto& [o, w] : local[static_cast<std::size_t>(at)]) {
        if (o == other && w == e.w) return true;
      }
      return false;
    };
    if (!knows(e.u, e.v) || !knows(e.v, e.u)) return false;
  }
  return true;
}

std::string BuildOutput::stats_json() const {
  std::ostringstream out;
  out << "{\"algo\": \"" << algorithm << "\", \"alpha\": " << alpha
      << ", \"beta\": " << beta << ", \"stats\": {";
  bool first = true;
  for (const auto& [key, value] : stats) {
    if (!first) out << ", ";
    out << '"' << key << "\": " << value;
    first = false;
  }
  out << "}}";
  return out.str();
}

std::vector<std::string> algorithms() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const Entry& e : registry()) names.push_back(e.info.name);
  std::sort(names.begin(), names.end());
  return names;
}

bool is_registered(const std::string& name) {
  for (const Entry& e : registry()) {
    if (e.info.name == name) return true;
  }
  return false;
}

const AlgorithmInfo& describe(const std::string& name) {
  return find_entry(name).info;
}

BuildOutput build(const Graph& g, const BuildSpec& spec) {
  const Entry& entry = find_entry(spec.algorithm);
  if (spec.params.rescale && !entry.info.supports_rescale) {
    throw std::invalid_argument("algorithm '" + spec.algorithm +
                                "' does not support eps rescaling");
  }
  spec.exec.transport.validate();
  if (spec.exec.transport.model != congest::TransportModel::kIdeal &&
      !entry.info.supports_transport) {
    throw std::invalid_argument(
        "algorithm '" + spec.algorithm + "' does not run on the CONGEST "
        "simulator, so the '" +
        std::string(
            congest::transport_model_name(spec.exec.transport.model)) +
        "' transport does not apply; non-ideal transports are supported by "
        "the algorithms usne::describe() flags with supports_transport");
  }
  BuildOutput out = entry.fn(g, spec, entry.info);
  // Structural audit of the constructed H: whatever the algorithm did, the
  // emulator/spanner it hands back must be a well-formed symmetric CSR
  // before anything downstream (serving, eval, persistence) trusts it.
  if (inv::audits_enabled()) {
    std::string error;
    USNE_CHECK(inv::Category::kCsr, validate_csr(out.h().csr(), &error),
               error);
  }
  return out;
}

}  // namespace usne
