// Tests for the §2.2.4 / §3.2.4 rescaling API: compute_rescaled must
// deliver a true (1 + eps_target, beta)-emulator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "api/build.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"

namespace usne {
namespace {

TEST(Rescaling, CentralizedAlphaMeetsTarget) {
  for (const double target : {0.1, 0.25, 0.5, 0.9}) {
    for (const int kappa : {2, 4, 8, 16}) {
      const auto p = CentralizedParams::compute_rescaled(10000, kappa, target);
      EXPECT_LE(p.schedule.alpha_bound(), 1.0 + target + 1e-9)
          << "target=" << target << " kappa=" << kappa;
      EXPECT_GT(p.eps, 0.0);
      EXPECT_LE(p.eps, target);
    }
  }
}

TEST(Rescaling, DistributedAlphaMeetsTarget) {
  for (const double target : {0.25, 0.5}) {
    const auto p = DistributedParams::compute_rescaled(4096, 8, 0.4, target);
    EXPECT_LE(p.schedule.alpha_bound(), 1.0 + target + 1e-9);
  }
}

TEST(Rescaling, UsesFullEpsWhenBudgetAllows) {
  // kappa = 1 => ell = 0 => alpha = 1 always: the search must keep the full
  // eps_target rather than shrinking it pointlessly.
  const auto p = CentralizedParams::compute_rescaled(1000, 1, 0.5);
  EXPECT_DOUBLE_EQ(p.eps, 0.5);
}

TEST(Rescaling, SmallerTargetGivesLargerBeta) {
  // Tightening the multiplicative budget costs additive error: beta grows
  // as eps_target shrinks (the paper's trade-off).
  const auto tight = CentralizedParams::compute_rescaled(10000, 8, 0.1);
  const auto loose = CentralizedParams::compute_rescaled(10000, 8, 0.9);
  EXPECT_GE(tight.schedule.beta_bound(), loose.schedule.beta_bound());
}

TEST(Rescaling, RejectsBadTargets) {
  EXPECT_THROW(CentralizedParams::compute_rescaled(100, 4, 0.0),
               std::invalid_argument);
  EXPECT_THROW(CentralizedParams::compute_rescaled(100, 4, 1.0),
               std::invalid_argument);
  EXPECT_THROW(DistributedParams::compute_rescaled(100, 4, 0.4, -0.1),
               std::invalid_argument);
}

TEST(Rescaling, EndToEndStretchWithinTarget) {
  // The real contract: build with rescaled params, verify the emulator is a
  // true (1 + eps_target, beta)-emulator via exact APSP.
  const double target = 0.5;
  const Graph g = gen_connected_gnm(250, 750, 3);
  const auto params = CentralizedParams::compute_rescaled(250, 4, target);
  const auto r = build(g, {.algorithm = "emulator_centralized",
                           .params = {.kappa = 4, .eps = target, .rescale = true}});
  const auto report = evaluate_stretch_exact(
      g, r.h(), 1.0 + target, params.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0)
      << "alpha=" << params.schedule.alpha_bound()
      << " beta=" << params.schedule.beta_bound();
}

TEST(Rescaling, EndToEndFastBuilder) {
  const double target = 0.5;
  const Graph g = gen_family("torus", 256, 9);
  const auto params =
      DistributedParams::compute_rescaled(g.num_vertices(), 8, 0.4, target);
  const auto r = build(g, {.algorithm = "emulator_fast",
                           .params = {.kappa = 8,
                                      .eps = target,
                                      .rho = 0.4,
                                      .rescale = true}});
  const auto report = evaluate_stretch_exact(
      g, r.h(), 1.0 + target, params.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0);
}

// Regression: `usne_run --algo emulator_fast --n 1024 --kappa 16 --rho 0.3
// --rescale` needs an internal eps near 6e-5 for alpha <= 1.25, where the
// radius, delta and beta recurrences overflowed int64 (undefined
// behaviour): it printed beta = -9223372036854734488, alpha = -91.2, and
// built anyway. An unrepresentable schedule now throws.
TEST(Rescaling, UnrepresentableScheduleThrowsOverflow) {
  EXPECT_THROW(DistributedParams::compute_rescaled(1024, 16, 0.3, 0.25),
               std::overflow_error);
  EXPECT_THROW(DistributedParams::compute(1024, 16, 0.3, 5.85e-5),
               std::overflow_error);

  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params = {16, 0.25, 0.3, /*rescale=*/true};
  EXPECT_THROW(build(gen_family("er", 1024, 2024), spec), std::overflow_error);
}

void expect_sane_schedule(const PhaseSchedule& s, double alpha_cap,
                          const std::string& where) {
  for (const auto* seq : {&s.seg, &s.delta, &s.radius, &s.beta}) {
    for (std::size_t i = 0; i < seq->size(); ++i) {
      ASSERT_GE((*seq)[i], 0) << where;
      if (i > 0) {
        ASSERT_GE((*seq)[i], (*seq)[i - 1]) << where;
      }
    }
  }
  ASSERT_LT(s.beta_bound(), INT64_MAX) << where;
  ASSERT_TRUE(std::isfinite(s.alpha_bound())) << where;
  ASSERT_GE(s.alpha_bound(), 1.0) << where;
  ASSERT_LE(s.alpha_bound(), alpha_cap) << where;
}

// Every point of the (n, kappa, rho, eps, rescale) space either yields a
// sane schedule (a rescaled one within its alpha budget) or throws
// std::overflow_error — never a wrapped value. The ASan+UBSan suite
// (scripts/analyze.sh) runs this, so any signed overflow left in the
// recurrences aborts it.
TEST(Rescaling, ParameterSweepIsSaneOrThrowsOverflow) {
  int sane = 0;
  int rejected = 0;
  const double uncapped = INFINITY;
  const auto attempt = [&](const auto& compute, double alpha_cap,
                           const std::string& where) {
    try {
      const auto p = compute();
      expect_sane_schedule(p.schedule, alpha_cap, where);
      ++sane;
    } catch (const std::overflow_error&) {
      ++rejected;
    }
  };
  for (const Vertex n : {Vertex{1}, Vertex{2}, Vertex{1024}, Vertex{1} << 20,
                         Vertex{1} << 30}) {
    for (const int kappa : {2, 3, 4, 8, 16, 32, 64}) {
      for (const double eps : {1e-6, 1e-3, 0.05, 0.25, 0.5, 0.9}) {
        const std::string at = "n=" + std::to_string(n) +
                               " kappa=" + std::to_string(kappa) +
                               " eps=" + std::to_string(eps);
        const double budget = 1.0 + eps + 1e-9;
        attempt([&] { return CentralizedParams::compute(n, kappa, eps); },
                uncapped, "centralized " + at);
        attempt(
            [&] { return CentralizedParams::compute_rescaled(n, kappa, eps); },
            budget, "centralized rescaled " + at);
        for (const double rho : {0.3, 0.45, 0.49}) {
          if (rho <= 1.0 / kappa) continue;
          const std::string at_rho = at + " rho=" + std::to_string(rho);
          attempt(
              [&] { return DistributedParams::compute(n, kappa, rho, eps); },
              uncapped, "distributed " + at_rho);
          attempt(
              [&] {
                return DistributedParams::compute_rescaled(n, kappa, rho, eps);
              },
              budget, "distributed rescaled " + at_rho);
          attempt([&] { return SpannerParams::compute(n, kappa, rho, eps); },
                  uncapped, "spanner " + at_rho);
        }
      }
    }
  }
  EXPECT_GT(sane, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace usne
