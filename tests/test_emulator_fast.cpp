// Tests for the fast centralized construction (§3.3): the same guarantees
// as Algorithm 1 under the distributed parameter schedule, at
// O~(|E| n^rho) cost.

#include <gtest/gtest.h>

#include <string>

#include "api/build.hpp"
#include "core/audit.hpp"
#include "core/emulator_fast.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

BuildOutput fast(const Graph& g, int kappa, double rho, double eps) {
  return build(g, {.algorithm = "emulator_fast",
                   .params = {.kappa = kappa, .eps = eps, .rho = rho}});
}

struct FastCase {
  std::string family;
  Vertex n;
  int kappa;
  double rho;
  double eps;
  std::uint64_t seed;
};

class FastSweep : public ::testing::TestWithParam<FastCase> {
 protected:
  void SetUp() override {
    const FastCase& c = GetParam();
    graph_ = gen_family(c.family, c.n, c.seed);
    params_ = DistributedParams::compute(graph_.num_vertices(), c.kappa, c.rho,
                                         c.eps);
    result_ = fast(graph_, c.kappa, c.rho, c.eps);
  }

  Graph graph_;
  DistributedParams params_;
  BuildOutput result_;
};

TEST_P(FastSweep, SizeBound) {
  EXPECT_LE(result_.h().num_edges(),
            size_bound_edges(graph_.num_vertices(), GetParam().kappa));
}

TEST_P(FastSweep, StretchBound) {
  const auto report = evaluate_stretch_exact(
      graph_, result_.h(), params_.schedule.alpha_bound(),
      params_.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0)
      << "alpha=" << params_.schedule.alpha_bound()
      << " beta=" << params_.schedule.beta_bound()
      << " max_add=" << report.max_additive;
  EXPECT_EQ(report.underruns, 0);
}

TEST_P(FastSweep, Audits) {
  // Superclustering edges connect ruling roots at exact BFS-forest
  // distances, so weights are exact here too.
  const auto report = audit_all(result_.result, graph_, params_.schedule,
                                GetParam().kappa, /*exact_weights=*/false);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(FastSweep, Deterministic) {
  const FastCase& c = GetParam();
  const auto again = fast(graph_, c.kappa, c.rho, c.eps);
  EXPECT_EQ(result_.h().edges(), again.h().edges());
}

INSTANTIATE_TEST_SUITE_P(
    Families, FastSweep,
    ::testing::Values(
        FastCase{"er", 256, 8, 0.4, 0.25, 1},
        FastCase{"er", 400, 4, 0.45, 0.25, 2},
        FastCase{"ba", 300, 8, 0.4, 0.5, 3},
        FastCase{"torus", 256, 8, 0.35, 0.25, 4},
        FastCase{"star", 200, 8, 0.4, 0.25, 5},
        FastCase{"caveman", 320, 4, 0.45, 0.4, 6},
        FastCase{"tree", 255, 8, 0.4, 0.25, 7},
        FastCase{"ws", 256, 16, 0.3, 0.25, 8},
        FastCase{"er", 512, 16, 0.3, 0.25, 9},
        FastCase{"cycle", 300, 8, 0.4, 0.25, 10}),
    [](const ::testing::TestParamInfo<FastCase>& info) {
      return info.param.family + "_n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.kappa) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(EmulatorFast, UltraSparseRegime) {
  // kappa = omega(log n) gives n + o(n) edges (Cor. 3.12 via §3.3).
  const Vertex n = 2048;
  const Graph g = gen_connected_gnm(n, 4 * n, 77);
  const int kappa = 44;  // = 4 * log2(n): comfortably omega(log n) scale
  const auto r = fast(g, kappa, 0.3, 0.25);
  // n^(1+1/44) = n * n^(0.0227) ~ 1.19n: strictly below 1.2 n here.
  EXPECT_LE(r.h().num_edges(), size_bound_edges(n, kappa));
  EXPECT_LT(static_cast<double>(r.h().num_edges()),
            1.2 * static_cast<double>(n));
}

TEST(EmulatorFast, LastPhaseHasNoPopularClusters) {
  // eq. (17): |P_ell| <= n^rho = deg_ell, so phase ell sees no popular
  // clusters and the superclustering step is safely skipped.
  const Graph g = gen_connected_gnm(500, 2000, 5);
  const BuildResult r = fast(g, 8, 0.4, 0.25).result;
  ASSERT_FALSE(r.phases.empty());
  EXPECT_EQ(r.phases.back().popular, 0);
  EXPECT_EQ(r.phases.back().clusters_out, 0);
}

TEST(EmulatorFast, PhaseSizesDecayGeometrically) {
  // eq. (15): |P_{i+1}| <= |P_i| / deg_i.
  const Graph g = gen_caveman(64, 8);  // 512 vertices with dense pockets
  const BuildResult r = fast(g, 4, 0.45, 0.25).result;
  for (const auto& p : r.phases) {
    if (p.clusters_out == 0) continue;
    EXPECT_LE(static_cast<double>(p.clusters_out) * (p.deg_threshold + 1.0),
              static_cast<double>(p.clusters_in) + 1e-6)
        << "phase " << p.phase;
  }
}

TEST(EmulatorFast, MismatchedParamsRejected) {
  const Graph g = gen_path(10);
  const auto params = DistributedParams::compute(99, 8, 0.4, 0.25);
  EXPECT_THROW(build_emulator_fast(g, params), std::invalid_argument);
}

TEST(EmulatorFast, ProfileOnlyWhenRequestedAndHUnchanged) {
  const Graph g = gen_family("caveman", 2048, 3);
  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params.kappa = 4;
  spec.params.rho = 0.45;
  spec.exec.keep_audit_data = false;
  const BuildOutput plain = build(g, spec);
  spec.exec.profile = true;
  const BuildOutput profiled = build(g, spec);

  EXPECT_TRUE(plain.profile.empty());
  EXPECT_EQ(plain.h().edges(), profiled.h().edges());
  EXPECT_EQ(plain.stats, profiled.stats);

  // One entry per (phase, task), wall time only.
  std::vector<std::string> got;
  for (const congest::PhaseProfileEntry& e : profiled.profile) {
    got.push_back(e.label);
    EXPECT_GE(e.times.wall_s, 0.0) << e.label;
    EXPECT_EQ(e.times.stage_sum_s(), 0.0) << e.label;
    EXPECT_EQ(e.times.rounds, 0) << e.label;
  }
  EXPECT_EQ(got, test::wall_profile_labels(profiled.result.phases));
  EXPECT_GT(profiled.result.phases.front().clusters_out, 0);
}

}  // namespace
}  // namespace usne
