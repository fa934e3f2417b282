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

Vertex resolve_n(const Graph& g, const BuildSpec& spec) {
  return spec.params.n > 0 ? spec.params.n : g.num_vertices();
}

CentralizedParams central_params(const Graph& g, const BuildSpec& s) {
  const Vertex n = resolve_n(g, s);
  return s.params.rescale
             ? CentralizedParams::compute_rescaled(n, s.params.kappa, s.params.eps)
             : CentralizedParams::compute(n, s.params.kappa, s.params.eps);
}

DistributedParams dist_params(const Graph& g, const BuildSpec& s) {
  const Vertex n = resolve_n(g, s);
  return s.params.rescale
             ? DistributedParams::compute_rescaled(n, s.params.kappa, s.params.rho,
                                                   s.params.eps)
             : DistributedParams::compute(n, s.params.kappa, s.params.rho,
                                          s.params.eps);
}

SpannerParams spanner_params(const Graph& g, const BuildSpec& s) {
  return SpannerParams::compute(resolve_n(g, s), s.params.kappa, s.params.rho,
                                s.params.eps);
}

/// Packages a legacy BuildResult into the uniform output (moves, no copies —
/// the adapters must stay bit-for-bit transparent, including cost).
BuildOutput pack(const AlgorithmInfo& info, BuildResult&& r) {
  BuildOutput out;
  out.algorithm = info.name;
  out.result = std::move(r);
  out.stats["edges"] = out.result.h.num_edges();
  out.stats["vertices"] = out.result.h.num_vertices();
  out.stats["phases"] = static_cast<std::int64_t>(out.result.phases.size());
  out.stats["interconnect_edges"] = out.result.interconnect_edges();
  out.stats["supercluster_edges"] = out.result.supercluster_edges();
  return out;
}

void add_guarantee(BuildOutput& out, const PhaseSchedule& sched,
                   std::string description) {
  out.has_guarantee = true;
  out.alpha = sched.alpha_bound();
  out.beta = sched.beta_bound();
  out.params_description = std::move(description);
}

void add_net(BuildOutput& out, const congest::NetworkStats& net) {
  out.distributed = true;
  out.net = net;
  out.stats["rounds"] = net.rounds;
  out.stats["messages"] = net.messages;
  out.stats["words"] = net.words;
}

/// Surfaces the delivery model's injected-event counters. The stats keys
/// appear only for non-ideal models so the Ideal StatsMap stays
/// bit-identical to the pre-transport registry output.
void add_transport(BuildOutput& out, const congest::TransportCounters& tc,
                   const congest::TransportSpec& spec) {
  out.transport = tc;
  if (spec.model != congest::TransportModel::kIdeal) {
    out.stats["transport_dropped"] = tc.dropped;
    out.stats["transport_duplicated"] = tc.duplicated;
    out.stats["transport_delayed"] = tc.delayed;
  }
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
           const auto params = central_params(g, s);
           CentralizedOptions o;
           o.keep_audit_data = s.exec.keep_audit_data;
           auto out = pack(info, build_emulator_centralized(g, params, o));
           add_guarantee(out, params.schedule, params.describe());
           return out;
         }});

    t.push_back(
        {{"emulator_fast",
          "SS3.3 fast centralized simulation: O~(|E| n^rho) per phase",
          "emulator", "centralized", true, /*uses_rho=*/true, false,
          /*supports_rescale=*/true, false},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = dist_params(g, s);
           FastOptions o;
           o.keep_audit_data = s.exec.keep_audit_data;
           std::vector<congest::PhaseProfileEntry> profile;
           if (s.exec.profile) o.profile = &profile;
           auto out = pack(info, build_emulator_fast(g, params, o));
           out.profile = std::move(profile);
           add_guarantee(out, params.schedule, params.describe());
           return out;
         }});

    t.push_back(
        {{"emulator_congest",
          "SS3.1 CONGEST construction: O(beta n^rho) rounds, both endpoints know",
          "emulator", "congest", true, /*uses_rho=*/true, false,
          /*supports_rescale=*/true, false, /*supports_transport=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = dist_params(g, s);
           DistributedOptions o;
           o.keep_audit_data = s.exec.keep_audit_data;
           o.hub_threshold_factor = s.exec.hub_threshold_factor;
           o.num_threads = s.exec.num_threads;
           o.transport = s.exec.transport;
           o.profile = s.exec.profile;
           auto r = build_emulator_distributed(g, params, o);
           auto out = pack(info, std::move(r.base));
           add_net(out, r.net);
           add_transport(out, r.transport, s.exec.transport);
           out.local = std::move(r.local);
           out.profile = std::move(r.profile);
           add_guarantee(out, params.schedule, params.describe());
           return out;
         }});

    t.push_back(
        {{"spanner",
          "SS4 near-additive spanner ([EN17a] degree sequence), subgraph of G",
          "spanner", "centralized", true, /*uses_rho=*/true, false, false,
          false},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = spanner_params(g, s);
           SpannerOptions o;
           o.keep_audit_data = s.exec.keep_audit_data;
           auto out = pack(info, build_spanner(g, params, o));
           add_guarantee(out, params.schedule, params.describe());
           return out;
         }});

    t.push_back(
        {{"spanner_congest",
          "SS4 spanner in CONGEST: mark-upcast superclustering, no hubs",
          "spanner", "congest", true, /*uses_rho=*/true, false, false, false,
          /*supports_transport=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = spanner_params(g, s);
           auto r = build_spanner_congest(g, params, s.exec.keep_audit_data,
                                          s.exec.num_threads, s.exec.transport,
                                          s.exec.profile);
           auto out = pack(info, std::move(r.base));
           add_net(out, r.net);
           add_transport(out, r.transport, s.exec.transport);
           out.profile = std::move(r.profile);
           add_guarantee(out, params.schedule, params.describe());
           return out;
         }});

    // --- the four baselines ------------------------------------------
    t.push_back(
        {{"spanner_em19",
          "[EM19] baseline: SS4 skeleton with the SS3 degree sequence, "
          "O(beta n^(1+1/kappa)) edges",
          "spanner", "centralized", true, /*uses_rho=*/true, false,
          /*supports_rescale=*/true, /*baseline=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = dist_params(g, s);
           SpannerOptions o;
           o.keep_audit_data = s.exec.keep_audit_data;
           auto out = pack(info, build_spanner_em19(g, params, o));
           add_guarantee(out, params.schedule, params.describe());
           return out;
         }});

    t.push_back(
        {{"spanner_congest_em19",
          "[EM19] baseline in CONGEST (round-for-round comparison)",
          "spanner", "congest", true, /*uses_rho=*/true, false,
          /*supports_rescale=*/true, /*baseline=*/true,
          /*supports_transport=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = dist_params(g, s);
           auto r = build_spanner_congest_em19(g, params, s.exec.keep_audit_data,
                                               s.exec.num_threads,
                                               s.exec.transport,
                                               s.exec.profile);
           auto out = pack(info, std::move(r.base));
           add_net(out, r.net);
           add_transport(out, r.transport, s.exec.transport);
           out.profile = std::move(r.profile);
           add_guarantee(out, params.schedule, params.describe());
           return out;
         }});

    t.push_back(
        {{"emulator_ep01",
          "[EP01] baseline: ground partition forces >= 2n - O(1) edges",
          "emulator", "centralized", true, false, false,
          /*supports_rescale=*/true, /*baseline=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const auto params = central_params(g, s);
           auto out = pack(info, build_emulator_ep01(g, params));
           add_guarantee(out, params.schedule, params.describe());
           return out;
         }});

    t.push_back(
        {{"emulator_tz06",
          "[TZ06] baseline: randomized sampling, O(n^(1+1/kappa)) expected",
          "emulator", "centralized", /*deterministic=*/false, false,
          /*uses_seed=*/true, false, /*baseline=*/true},
         [](const Graph& g, const BuildSpec& s, const AlgorithmInfo& info) {
           const Vertex n = resolve_n(g, s);
           auto out =
               pack(info, build_emulator_tz06(g, n, s.params.kappa, s.exec.seed));
           std::ostringstream desc;
           desc << "tz06: n=" << n << " kappa=" << s.params.kappa
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
           const Vertex n = resolve_n(g, s);
           auto out = pack(info, build_emulator_en17(g, n, s.params.kappa,
                                                     s.params.eps, s.exec.seed));
           std::ostringstream desc;
           desc << "en17: n=" << n << " kappa=" << s.params.kappa
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
  return endpoints_know_all_edges(result.h, local);
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
