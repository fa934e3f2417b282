// Property-based parameterized sweeps for Algorithm 1: across graph
// families, sizes, kappa and eps, verify
//   (P1) |H| <= n^(1+1/kappa)                      [Lemma 2.4]
//   (P2) d_G <= d_H <= alpha*d_G + beta            [Lemma 2.10]
//   (P3) edge weights are exact graph distances
//   (P4) the partition / laminarity / radius / charging audits
//   (P5) bit-for-bit determinism.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "api/build.hpp"
#include "core/audit.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

BuildOutput algorithm1(const Graph& g, int kappa, double eps) {
  return build(g, {.algorithm = "emulator_centralized",
                   .params = {.kappa = kappa, .eps = eps}});
}

struct SweepCase {
  std::string family;
  Vertex n;
  int kappa;
  double eps;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string eps = std::to_string(static_cast<int>(c.eps * 100));
  return c.family + "_n" + std::to_string(c.n) + "_k" + std::to_string(c.kappa) +
         "_e" + eps + "_s" + std::to_string(c.seed);
}

class EmulatorSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    const SweepCase& c = GetParam();
    graph_ = gen_family(c.family, c.n, c.seed);
    params_ = CentralizedParams::compute(graph_.num_vertices(), c.kappa, c.eps);
    result_ = algorithm1(graph_, c.kappa, c.eps);
  }

  Graph graph_;
  CentralizedParams params_;
  BuildOutput result_;
};

TEST_P(EmulatorSweep, SizeBound) {
  EXPECT_LE(result_.h().num_edges(),
            size_bound_edges(graph_.num_vertices(), GetParam().kappa));
}

TEST_P(EmulatorSweep, StretchBound) {
  const auto report = evaluate_stretch_exact(
      graph_, result_.h(), params_.schedule.alpha_bound(),
      params_.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0)
      << "alpha=" << params_.schedule.alpha_bound()
      << " beta=" << params_.schedule.beta_bound()
      << " max_add=" << report.max_additive << " max_mult=" << report.max_mult;
  EXPECT_EQ(report.underruns, 0);
}

TEST_P(EmulatorSweep, Audits) {
  const auto report = audit_all(result_.result, graph_, params_.schedule,
                                GetParam().kappa, /*exact_weights=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(EmulatorSweep, Deterministic) {
  const SweepCase& c = GetParam();
  EXPECT_EQ(result_.h().edges(), algorithm1(graph_, c.kappa, c.eps).h().edges());
}

INSTANTIATE_TEST_SUITE_P(
    Families, EmulatorSweep,
    ::testing::Values(
        SweepCase{"er", 200, 2, 0.25, 1}, SweepCase{"er", 200, 4, 0.25, 2},
        SweepCase{"er", 300, 8, 0.5, 3}, SweepCase{"er", 150, 3, 0.1, 4},
        SweepCase{"ba", 200, 2, 0.25, 5}, SweepCase{"ba", 250, 4, 0.5, 6},
        SweepCase{"torus", 196, 2, 0.25, 7}, SweepCase{"torus", 256, 4, 0.3, 8},
        SweepCase{"star", 120, 4, 0.25, 9}, SweepCase{"star", 200, 2, 0.5, 10},
        SweepCase{"tree", 255, 4, 0.25, 11}, SweepCase{"tree", 127, 2, 0.3, 12},
        SweepCase{"caveman", 160, 2, 0.4, 13},
        SweepCase{"caveman", 240, 4, 0.25, 14},
        SweepCase{"ws", 200, 4, 0.25, 15}, SweepCase{"ws", 256, 8, 0.5, 16},
        SweepCase{"cycle", 200, 4, 0.25, 17}, SweepCase{"path", 200, 2, 0.25, 18},
        SweepCase{"dumbbell", 150, 2, 0.4, 19},
        SweepCase{"hypercube", 256, 4, 0.25, 20},
        SweepCase{"grid", 225, 3, 0.25, 21},
        SweepCase{"regular", 200, 4, 0.25, 22},
        SweepCase{"er", 500, 16, 0.25, 23}, SweepCase{"ba", 400, 16, 0.5, 24}),
    case_name);

// Sparser secondary sweep over eps values on a fixed graph: beta/alpha
// budgets must hold for every eps.
class EpsSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsSweep, StretchHoldsAcrossEps) {
  const double eps = GetParam();
  const Graph g = gen_connected_gnm(220, 660, 42);
  const auto params = CentralizedParams::compute(220, 4, eps);
  const auto r = algorithm1(g, 4, eps);
  const auto report = evaluate_stretch_exact(
      g, r.h(), params.schedule.alpha_bound(), params.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0) << "eps=" << eps;
  EXPECT_LE(r.h().num_edges(), size_bound_edges(220, 4));
}

INSTANTIATE_TEST_SUITE_P(Eps, EpsSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7,
                                           0.9));

}  // namespace
}  // namespace usne
