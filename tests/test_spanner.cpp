// Tests for the §4 near-additive spanner: subgraph property, size
// O(n^(1+1/kappa)), stretch, and the size separation against the [EM19]
// baseline (the paper's Corollary 4.4 improvement).

#include <gtest/gtest.h>

#include <string>

#include "api/build.hpp"
#include "core/params.hpp"
#include "core/spanner.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

/// `algorithm` is "spanner" (the paper's degree sequence) or
/// "spanner_em19" (the [EM19] baseline's).
BuildOutput spanner(const Graph& g, const char* algorithm, int kappa,
                    double rho, double eps, bool keep_audit_data = true) {
  return build(g, {.algorithm = algorithm,
                   .params = {.kappa = kappa, .eps = eps, .rho = rho},
                   .exec = {.keep_audit_data = keep_audit_data}});
}

struct SpannerCase {
  std::string family;
  Vertex n;
  int kappa;
  double rho;
  double eps;
  std::uint64_t seed;
};

class SpannerSweep : public ::testing::TestWithParam<SpannerCase> {
 protected:
  void SetUp() override {
    const SpannerCase& c = GetParam();
    graph_ = gen_family(c.family, c.n, c.seed);
    params_ = SpannerParams::compute(graph_.num_vertices(), c.kappa, c.rho, c.eps);
    result_ = spanner(graph_, "spanner", c.kappa, c.rho, c.eps);
  }

  Graph graph_;
  SpannerParams params_;
  BuildOutput result_;
};

TEST_P(SpannerSweep, IsSubgraph) {
  EXPECT_TRUE(is_subgraph(result_.h(), graph_));
}

TEST_P(SpannerSweep, SizeWithinConstantFactorOfBound) {
  // Corollary 4.4 guarantees O(n^(1+1/kappa)); assert a modest constant.
  const std::int64_t bound =
      size_bound_edges(graph_.num_vertices(), GetParam().kappa);
  EXPECT_LE(result_.h().num_edges(), 4 * bound)
      << "n=" << graph_.num_vertices() << " |H|=" << result_.h().num_edges();
  // A spanner can never exceed G itself.
  EXPECT_LE(result_.h().num_edges(), graph_.num_edges());
}

TEST_P(SpannerSweep, StretchBound) {
  const auto report = evaluate_stretch_exact(
      graph_, result_.h(), params_.schedule.alpha_bound(),
      params_.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0)
      << "alpha=" << params_.schedule.alpha_bound()
      << " beta=" << params_.schedule.beta_bound()
      << " max_add=" << report.max_additive;
  EXPECT_EQ(report.underruns, 0);  // subgraph: d_H >= d_G automatically
}

TEST_P(SpannerSweep, Deterministic) {
  const SpannerCase& c = GetParam();
  const auto again = spanner(graph_, "spanner", c.kappa, c.rho, c.eps);
  EXPECT_EQ(result_.h().edges(), again.h().edges());
}

INSTANTIATE_TEST_SUITE_P(
    Families, SpannerSweep,
    ::testing::Values(
        SpannerCase{"er", 256, 8, 0.4, 0.25, 1},
        SpannerCase{"er", 400, 4, 0.45, 0.25, 2},
        SpannerCase{"ba", 300, 8, 0.4, 0.4, 3},
        SpannerCase{"torus", 256, 8, 0.35, 0.25, 4},
        SpannerCase{"caveman", 320, 4, 0.45, 0.4, 5},
        SpannerCase{"ws", 256, 8, 0.4, 0.25, 6},
        SpannerCase{"star", 200, 8, 0.4, 0.25, 7},
        SpannerCase{"tree", 255, 8, 0.4, 0.25, 8}),
    [](const ::testing::TestParamInfo<SpannerCase>& info) {
      return info.param.family + "_n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.kappa) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(Spanner, PathsConnectRealVertices) {
  // Every logged spanner edge is a unit edge of G (the add_path contract).
  const Graph g = gen_connected_gnm(200, 600, 11);
  const auto r = spanner(g, "spanner", 8, 0.4, 0.25);
  for (const ChargedEdge& e : r.result.edge_log) {
    EXPECT_EQ(e.w, 1);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(Spanner, Em19BaselineIsDenser) {
  // The point of §4: our degree sequence beats [EM19]'s at equal kappa.
  // EM19's interconnection paths at later phases cost a beta factor; the
  // separation is asymptotic, but already measurable at laptop scale on
  // random graphs. Assert ours <= EM19 everywhere and strictly better on
  // at least one workload.
  bool strictly_better_somewhere = false;
  for (const Vertex n : {512, 768, 1024}) {
    const Graph g = gen_connected_gnm(n, 4 * static_cast<std::int64_t>(n), 5);
    const auto ours = spanner(g, "spanner", 8, 0.4, 0.25, false);
    const auto em19 = spanner(g, "spanner_em19", 8, 0.4, 0.25, false);
    EXPECT_LE(ours.h().num_edges(), em19.h().num_edges()) << "n=" << n;
    if (ours.h().num_edges() < em19.h().num_edges()) {
      strictly_better_somewhere = true;
    }
  }
  EXPECT_TRUE(strictly_better_somewhere);
}

TEST(Spanner, Em19AlsoValid) {
  // The baseline must still be a correct spanner (it is the prior SOTA,
  // not a strawman).
  const Graph g = gen_connected_gnm(250, 750, 21);
  const auto params = DistributedParams::compute(250, 8, 0.4, 0.25);
  const auto r = spanner(g, "spanner_em19", 8, 0.4, 0.25);
  EXPECT_TRUE(is_subgraph(r.h(), g));
  const auto report = evaluate_stretch_exact(
      g, r.h(), params.schedule.alpha_bound(), params.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0);
}

TEST(Spanner, ProfileAndSpansPerTaskWithHUnchanged) {
  // Both degree sequences superclustering in several phases (caveman at
  // kappa 8), traced and profiled: one wall-time entry and one trace span
  // per (phase, task), and H and the stats bit-identical to the plain run.
  const Graph g = gen_family("caveman", 4096, 2024);
  for (const char* algorithm : {"spanner", "spanner_em19"}) {
    SCOPED_TRACE(algorithm);
    BuildSpec spec{.algorithm = algorithm,
                   .params = {.kappa = 8, .eps = 0.25, .rho = 0.3},
                   .exec = {.keep_audit_data = false}};
    const BuildOutput plain = build(g, spec);
    spec.exec.profile = true;
    obs::trace_reset();
    obs::trace_set_enabled(true);
    const BuildOutput profiled = build(g, spec);
    obs::trace_set_enabled(false);
    const std::string trace = obs::trace_dump_chrome_json();
    obs::trace_reset();

    EXPECT_TRUE(plain.profile.empty());
    EXPECT_EQ(plain.h().edges(), profiled.h().edges());
    EXPECT_EQ(plain.stats, profiled.stats);

    std::vector<std::string> labels;
    for (const congest::PhaseProfileEntry& e : profiled.profile) {
      labels.push_back(e.label);
      EXPECT_GE(e.times.wall_s, 0.0) << e.label;
      EXPECT_EQ(e.times.stage_sum_s(), 0.0) << e.label;
    }
    const std::vector<PhaseStats>& phases = profiled.result.phases;
    EXPECT_EQ(labels, test::wall_profile_labels(phases));

    std::size_t superclustered = 0;
    for (const PhaseStats& p : phases) superclustered += p.clusters_out > 0;
    EXPECT_GE(superclustered, 2u);
    // A span dumps as a begin and an end event.
    EXPECT_EQ(test::count_of(trace, "\"core.detect\""), 2 * phases.size());
    EXPECT_EQ(test::count_of(trace, "\"core.ruling\""), 2 * superclustered);
    EXPECT_EQ(test::count_of(trace, "\"core.forest\""), 2 * superclustered);
    EXPECT_EQ(test::count_of(trace, "\"core.interconnect\""), 2 * phases.size());
  }
}

TEST(Spanner, MismatchedParamsRejected) {
  const Graph g = gen_path(10);
  const auto params = SpannerParams::compute(99, 8, 0.4, 0.25);
  EXPECT_THROW(build_spanner(g, params), std::invalid_argument);
}

}  // namespace
}  // namespace usne
