// Unified construction API (api/build.hpp): registry enumeration, metadata,
// the guarantee each deterministic name reports, and the ExecOptions/ParamSet
// switches every registered name must honour. That each name reaches the
// right builder is pinned by the h_digest pins of scripts/pins.json.

#include "api/build.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/params.hpp"
#include "graph/generators.hpp"

namespace usne {
namespace {

constexpr Vertex kN = 128;
constexpr int kKappa = 4;
constexpr double kEps = 0.4;
constexpr double kRho = 0.49;
constexpr std::uint64_t kSeed = 2024;

Graph test_graph() { return gen_family("er", kN, kSeed); }

BuildSpec spec_for(const std::string& algo) {
  BuildSpec spec;
  spec.algorithm = algo;
  spec.params.kappa = kKappa;
  spec.params.eps = kEps;
  spec.params.rho = kRho;
  spec.exec.seed = kSeed;
  return spec;
}

// The (alpha, beta) guarantee and params description a deterministic name
// must report, computed here from the parameter engine rather than read back
// from the registry: Algorithm 1 and [EP01] take the §2 schedule, the §3
// emulators and the [EM19] spanners the §3 degree sequence, the §4 spanners
// their own.
struct Guarantee {
  double alpha = 0;
  Dist beta = 0;
  std::string description;
};

template <typename Params>
Guarantee guarantee_of(const Params& p) {
  return {p.schedule.alpha_bound(), p.schedule.beta_bound(), p.describe()};
}

Guarantee expected_guarantee(const std::string& name, Vertex n, bool rescale) {
  if (name == "emulator_centralized" || name == "emulator_ep01") {
    return guarantee_of(
        rescale ? CentralizedParams::compute_rescaled(n, kKappa, kEps)
                : CentralizedParams::compute(n, kKappa, kEps));
  }
  if (name == "emulator_fast" || name == "emulator_congest" ||
      name == "spanner_em19" || name == "spanner_congest_em19") {
    return guarantee_of(
        rescale ? DistributedParams::compute_rescaled(n, kKappa, kRho, kEps)
                : DistributedParams::compute(n, kKappa, kRho, kEps));
  }
  if ((name == "spanner" || name == "spanner_congest") && !rescale) {
    return guarantee_of(SpannerParams::compute(n, kKappa, kRho, kEps));
  }
  ADD_FAILURE() << "no expected guarantee for " << name
                << (rescale ? " (rescaled)" : "");
  return {};
}

void expect_guarantee(const BuildOutput& out, const Guarantee& want) {
  EXPECT_TRUE(out.has_guarantee);
  EXPECT_DOUBLE_EQ(out.alpha, want.alpha);
  EXPECT_EQ(out.beta, want.beta);
  EXPECT_EQ(out.params_description, want.description);
}

TEST(Registry, EnumeratesAllNineConstructions) {
  const auto names = algorithms();
  for (const char* required :
       {"emulator_centralized", "emulator_fast", "emulator_congest", "spanner",
        "spanner_congest", "spanner_em19", "spanner_congest_em19",
        "emulator_ep01", "emulator_tz06", "emulator_en17"}) {
    EXPECT_TRUE(is_registered(required)) << required;
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, DescribeIsConsistent) {
  for (const std::string& name : algorithms()) {
    const AlgorithmInfo& info = describe(name);
    EXPECT_EQ(info.name, name);
    EXPECT_FALSE(info.summary.empty());
    EXPECT_TRUE(info.kind == "emulator" || info.kind == "spanner") << name;
    EXPECT_TRUE(info.model == "centralized" || info.model == "congest")
        << name;
  }
  EXPECT_EQ(describe("emulator_congest").model, "congest");
  EXPECT_EQ(describe("spanner").kind, "spanner");
  EXPECT_FALSE(describe("emulator_tz06").deterministic);
  EXPECT_TRUE(describe("emulator_tz06").baseline);
  EXPECT_FALSE(describe("emulator_centralized").baseline);
}

TEST(Registry, UnknownNameThrowsWithCatalog) {
  EXPECT_FALSE(is_registered("no_such_algorithm"));
  try {
    build(test_graph(), spec_for("no_such_algorithm"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error message doubles as documentation: it lists every name.
    EXPECT_NE(std::string(e.what()).find("emulator_centralized"),
              std::string::npos);
  }
  EXPECT_THROW(describe("no_such_algorithm"), std::invalid_argument);
}

TEST(Registry, RescaleRejectedWhereUnsupported) {
  auto spec = spec_for("spanner");
  spec.params.rescale = true;
  EXPECT_THROW(build(test_graph(), spec), std::invalid_argument);
  EXPECT_FALSE(describe("spanner").supports_rescale);
  EXPECT_TRUE(describe("emulator_centralized").supports_rescale);
}

TEST(Registry, EveryAlgorithmBuildsWithGuaranteeMetadata) {
  const Graph g = test_graph();
  for (const std::string& name : algorithms()) {
    SCOPED_TRACE(name);
    const BuildOutput out = build(g, spec_for(name));
    EXPECT_EQ(out.algorithm, name);
    EXPECT_GT(out.h().num_edges(), 0);
    EXPECT_GT(out.stats.at("edges"), 0);
    EXPECT_EQ(out.stats.count("rounds"),
              describe(name).model == "congest" ? 1u : 0u);
    EXPECT_EQ(out.distributed, describe(name).model == "congest");
    if (describe(name).deterministic) {
      expect_guarantee(out, expected_guarantee(name, g.num_vertices(), false));
      EXPECT_GE(out.alpha, 1.0);
      EXPECT_GT(out.beta, 0);
    } else {
      EXPECT_FALSE(out.has_guarantee);
    }
    EXPECT_TRUE(out.endpoints_consistent());
    // The uniform JSON record is well-formed enough for CI consumption.
    const std::string json = out.stats_json();
    EXPECT_NE(json.find("\"algo\": \"" + name + "\""), std::string::npos);
    EXPECT_NE(json.find("\"edges\": "), std::string::npos);
  }
}

// One pass over every registered name: the ExecOptions switches that must
// leave H alone, and the rescale support matrix.
TEST(Registry, ExecSwitchesKeepHAndRescaleFollowsDescribe) {
  const Graph g = test_graph();
  for (const std::string& name : algorithms()) {
    SCOPED_TRACE(name);
    const AlgorithmInfo& info = describe(name);
    const BuildOutput full = build(g, spec_for(name));

    // Audit data: the builders that record snapshots and an edge log drop
    // both without it, and build the same H.
    auto lean_spec = spec_for(name);
    lean_spec.exec.keep_audit_data = false;
    const BuildOutput lean = build(g, lean_spec);
    const bool records = name != "emulator_ep01" && name != "emulator_tz06" &&
                         name != "emulator_en17";
    EXPECT_EQ(full.result.partitions.empty(), !records);
    EXPECT_EQ(full.result.edge_log.empty(), !records);
    EXPECT_TRUE(lean.result.partitions.empty());
    EXPECT_TRUE(lean.result.edge_log.empty());
    EXPECT_EQ(lean.h().edges(), full.h().edges());
    EXPECT_EQ(lean.stats, full.stats);

    // Profiling: measurement only. The CONGEST builders report scheduler
    // stages, emulator_fast and the centralized spanners wall time; the
    // rest record nothing.
    auto profiled_spec = spec_for(name);
    profiled_spec.exec.profile = true;
    const BuildOutput profiled = build(g, profiled_spec);
    const bool profiles = info.model == "congest" || name == "emulator_fast" ||
                          name == "spanner" || name == "spanner_em19";
    EXPECT_TRUE(full.profile.empty());
    EXPECT_EQ(profiled.profile.empty(), !profiles);
    EXPECT_EQ(profiled.h().edges(), full.h().edges());
    EXPECT_EQ(profiled.stats, full.stats);

    // Rescaling: rejected where unsupported, a true (1 + eps) emulator or
    // spanner with the rescaled schedule's guarantee where supported.
    auto rescaled = spec_for(name);
    rescaled.params.rescale = true;
    if (info.supports_rescale) {
      const BuildOutput out = build(g, rescaled);
      EXPECT_LE(out.alpha, 1.0 + kEps);
      if (info.deterministic) {
        expect_guarantee(out, expected_guarantee(name, g.num_vertices(), true));
      }
    } else {
      EXPECT_THROW(build(g, rescaled), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace usne
