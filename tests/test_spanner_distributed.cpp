// Tests for the distributed CONGEST spanner (§4 on the simulator):
// subgraph property, stretch, agreement in spirit with the centralized
// simulation, round metering, determinism. Cap compliance is implicit:
// any violation throws and fails the test.

#include <gtest/gtest.h>

#include <string>

#include "api/build.hpp"
#include "core/params.hpp"
#include "core/spanner.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

BuildOutput spanner(const Graph& g, const char* algorithm, int kappa,
                    double rho) {
  return build(g, {.algorithm = algorithm,
                   .params = {.kappa = kappa, .eps = 0.4, .rho = rho}});
}

struct CongestSpannerCase {
  std::string family;
  Vertex n;
  int kappa;
  double rho;
  std::uint64_t seed;
};

class CongestSpannerSweep
    : public ::testing::TestWithParam<CongestSpannerCase> {
 protected:
  void SetUp() override {
    const CongestSpannerCase& c = GetParam();
    graph_ = gen_family(c.family, c.n, c.seed);
    params_ = SpannerParams::compute(graph_.num_vertices(), c.kappa, c.rho, 0.4);
    result_ = spanner(graph_, "spanner_congest", c.kappa, c.rho);
  }

  Graph graph_;
  SpannerParams params_;
  BuildOutput result_;
};

TEST_P(CongestSpannerSweep, IsSubgraph) {
  EXPECT_TRUE(is_subgraph(result_.h(), graph_));
}

TEST_P(CongestSpannerSweep, StretchBound) {
  const auto report = evaluate_stretch_exact(
      graph_, result_.h(), params_.schedule.alpha_bound(),
      params_.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0)
      << "beta=" << params_.schedule.beta_bound()
      << " max_add=" << report.max_additive;
  EXPECT_EQ(report.underruns, 0);
}

TEST_P(CongestSpannerSweep, SizeReasonable) {
  // O(n^(1+1/kappa)); assert a modest constant, and never more than G.
  EXPECT_LE(result_.h().num_edges(),
            4 * size_bound_edges(graph_.num_vertices(), GetParam().kappa));
  EXPECT_LE(result_.h().num_edges(), graph_.num_edges());
}

TEST_P(CongestSpannerSweep, RoundsMeteredAndDeterministic) {
  EXPECT_GT(result_.net.rounds, 0);
  const CongestSpannerCase& c = GetParam();
  const auto again = spanner(graph_, "spanner_congest", c.kappa, c.rho);
  EXPECT_EQ(result_.h().edges(), again.h().edges());
  EXPECT_EQ(result_.net.rounds, again.net.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Families, CongestSpannerSweep,
    ::testing::Values(
        CongestSpannerCase{"er", 128, 4, 0.45, 1},
        CongestSpannerCase{"er", 192, 8, 0.4, 2},
        CongestSpannerCase{"ba", 128, 4, 0.45, 3},
        CongestSpannerCase{"torus", 144, 4, 0.45, 4},
        CongestSpannerCase{"caveman", 128, 4, 0.45, 5},
        CongestSpannerCase{"tree", 127, 4, 0.45, 6}),
    [](const ::testing::TestParamInfo<CongestSpannerCase>& info) {
      return info.param.family + "_n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.kappa) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(CongestSpanner, MatchesCentralizedSimulationSize) {
  // The CONGEST run and the §3.3-style centralized simulation follow the
  // same phase logic; sizes agree up to the different notification
  // mechanics (dedup makes both subgraphs of the same path union).
  const Graph g = gen_connected_gnm(160, 480, 9);
  const auto congest = spanner(g, "spanner_congest", 4, 0.45).h().num_edges();
  const auto central = spanner(g, "spanner", 4, 0.45).h().num_edges();
  // Same invariants; sizes within a small factor of each other.
  EXPECT_LE(congest, 2 * central + 16);
  EXPECT_LE(central, 2 * congest + 16);
}

TEST(CongestSpanner, Em19VariantRuns) {
  const Graph g = gen_connected_gnm(128, 384, 11);
  const auto params = DistributedParams::compute(128, 4, 0.45, 0.4);
  const auto r = spanner(g, "spanner_congest_em19", 4, 0.45);
  EXPECT_TRUE(is_subgraph(r.h(), g));
  const auto report = evaluate_stretch_exact(
      g, r.h(), params.schedule.alpha_bound(), params.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0);
}

TEST(CongestSpanner, UPartitionComplete) {
  const Graph g = gen_family("ws", 128, 13);
  const auto r = spanner(g, "spanner_congest", 4, 0.45);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(r.result.u_level[static_cast<std::size_t>(v)], 0) << v;
  }
}

}  // namespace
}  // namespace usne
