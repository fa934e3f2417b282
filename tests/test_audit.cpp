// Failure-injection tests for the audit module: every auditor must catch
// the violation class it exists for. A clean build passes; a corrupted one
// must fail with a descriptive message.

#include <gtest/gtest.h>

#include "api/build.hpp"
#include "core/audit.hpp"
#include "core/params.hpp"
#include "graph/generators.hpp"

namespace usne {
namespace {

class AuditInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = gen_connected_gnm(150, 450, 7);
    params_ = CentralizedParams::compute(150, 4, 0.25);
    result_ = build(graph_, {.algorithm = "emulator_centralized",
                             .params = {.kappa = 4, .eps = 0.25}})
                  .result;
    ASSERT_TRUE(audit_all(result_, graph_, params_.schedule, 4, true).ok());
  }

  Graph graph_;
  CentralizedParams params_;
  BuildResult result_;
};

TEST_F(AuditInjection, CleanBuildPasses) {
  const auto report = audit_all(result_, graph_, params_.schedule, 4, true);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_string(), "audit: ok");
}

TEST_F(AuditInjection, CatchesTooShortEdgeWeight) {
  // An edge strictly shorter than the true distance makes H cheat.
  BuildResult bad = result_;
  // Find a pair at distance >= 2 and connect it with weight 1.
  bad.h.add_edge(0, 149, 1);
  const auto exact = audit_edge_weights(bad, graph_, /*exact=*/true);
  const auto lower = audit_edge_weights(bad, graph_, /*exact=*/false);
  if (!graph_.has_edge(0, 149)) {
    EXPECT_FALSE(exact.ok());
    EXPECT_FALSE(lower.ok());
  }
}

TEST_F(AuditInjection, CatchesInexactWeight) {
  // Weight above the distance is fine for validity but not in exact mode.
  // (Pick a pair not already in H: WeightedGraph keeps the minimum weight,
  // so overwriting an existing edge with a larger weight is a no-op.)
  BuildResult bad = result_;
  bool injected = false;
  for (Vertex v = 1; v < graph_.num_vertices() && !injected; ++v) {
    if (bad.h.edge_weight(0, v) == kInfDist) {
      bad.h.add_edge(0, v, 100000);
      injected = true;
    }
  }
  ASSERT_TRUE(injected);
  EXPECT_TRUE(audit_edge_weights(bad, graph_, /*exact=*/false).ok());
  EXPECT_FALSE(audit_edge_weights(bad, graph_, /*exact=*/true).ok());
}

TEST_F(AuditInjection, CatchesSizeBoundOverflow) {
  BuildResult bad = result_;
  // Flood the emulator with junk edges (weights valid: use real distances
  // not needed — charging audit checks count, not weights).
  for (Vertex u = 0; u < 150; ++u) {
    for (Vertex v = u + 1; v < 150; ++v) bad.h.add_edge(u, v, 1000);
  }
  const auto report = audit_charging(bad, 150, 4);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.to_string().find("n^(1+1/kappa)"), std::string::npos);
}

TEST_F(AuditInjection, CatchesInterconnectOvercount) {
  BuildResult bad = result_;
  ASSERT_FALSE(bad.phases.empty());
  bad.phases[0].interconnect_edges += 1000000;
  EXPECT_FALSE(audit_charging(bad, 150, 4).ok());
}

TEST_F(AuditInjection, CatchesSuperclusterOvercount) {
  BuildResult bad = result_;
  ASSERT_FALSE(bad.phases.empty());
  bad.phases[0].supercluster_edges += 1000000;
  EXPECT_FALSE(audit_charging(bad, 150, 4).ok());
}

TEST_F(AuditInjection, CatchesBrokenPartition) {
  BuildResult bad = result_;
  ASSERT_GE(bad.partitions.size(), 1u);
  ASSERT_GE(bad.partitions[0].size(), 2u);
  // Duplicate a vertex across two clusters of P_0.
  bad.partitions[0][0].members.push_back(bad.partitions[0][1].members[0]);
  EXPECT_FALSE(audit_partitions(bad, 150).ok());
}

TEST_F(AuditInjection, CatchesMissingULevel) {
  BuildResult bad = result_;
  bad.u_level[42] = -1;
  EXPECT_FALSE(audit_partitions(bad, 150).ok());
}

TEST(AuditLaminarity, HandBuiltCases) {
  // Laminar hierarchy: P_1 clusters are unions of P_0 clusters.
  BuildResult good;
  good.partitions.resize(2);
  good.partitions[0] = {{0, {0, 1}}, {2, {2, 3}}};
  good.partitions[1] = {{0, {0, 1, 2, 3}}};
  EXPECT_TRUE(audit_laminarity(good).ok());

  // Violation: P_1 splits the P_0 cluster {2,3} across two clusters.
  BuildResult bad;
  bad.partitions.resize(2);
  bad.partitions[0] = {{0, {0, 1}}, {2, {2, 3}}};
  bad.partitions[1] = {{0, {0, 1, 2}}, {3, {3}}};
  EXPECT_FALSE(audit_laminarity(bad).ok());

  // Violation: P_1 contains a vertex P_0 never had.
  BuildResult ghost;
  ghost.partitions.resize(2);
  ghost.partitions[0] = {{0, {0, 1}}};
  ghost.partitions[1] = {{0, {0, 1, 7}}};
  EXPECT_FALSE(audit_laminarity(ghost).ok());
}

TEST_F(AuditInjection, CatchesRadiusViolation) {
  BuildResult bad = result_;
  // Shrink the radius bounds to zero: any non-singleton cluster violates.
  auto schedule = params_.schedule;
  for (auto& r : schedule.radius) r = 0;
  bool has_multi = false;
  for (const auto& p : bad.partitions) {
    for (const auto& c : p) has_multi |= c.members.size() > 1;
  }
  if (has_multi) {
    EXPECT_FALSE(audit_radii(bad, schedule).ok());
  }
}

TEST_F(AuditInjection, ReportsAreDescriptive) {
  BuildResult bad = result_;
  bad.phases[0].interconnect_edges += 1000000;
  const auto report = audit_charging(bad, 150, 4);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("phase 0"), std::string::npos);
  EXPECT_NE(report.to_string().find("failure"), std::string::npos);
}

TEST(AuditStandalone, MissingAuditDataReported) {
  const Graph g = gen_path(50);
  const auto r = build(g, {.algorithm = "emulator_centralized",
                           .params = {.kappa = 4, .eps = 0.25},
                           .exec = {.keep_audit_data = false}});
  const auto report = audit_partitions(r.result, 50);
  EXPECT_FALSE(report.ok());  // snapshots absent -> explicit failure
}

}  // namespace
}  // namespace usne
