// Tests for the distributed CONGEST construction (§3.1): all emulator
// guarantees PLUS the distributed-specific obligations — zero cap
// violations (enforced by the simulator), the both-endpoints-know property,
// and round counts within the theoretical schedule.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/build.hpp"
#include "congest/transport.hpp"
#include "core/audit.hpp"
#include "core/params.hpp"
#include "eval/stretch.hpp"
#include "graph/generators.hpp"
#include "util/math.hpp"

namespace usne {
namespace {

BuildSpec congest_spec(int kappa, double rho, double eps) {
  return {.algorithm = "emulator_congest",
          .params = {.kappa = kappa, .eps = eps, .rho = rho}};
}

struct DistCase {
  std::string family;
  Vertex n;
  int kappa;
  double rho;
  double eps;
  std::uint64_t seed;
};

class DistributedSweep : public ::testing::TestWithParam<DistCase> {
 protected:
  void SetUp() override {
    const DistCase& c = GetParam();
    graph_ = gen_family(c.family, c.n, c.seed);
    params_ = DistributedParams::compute(graph_.num_vertices(), c.kappa, c.rho,
                                         c.eps);
    // Building at all proves cap compliance: the Network throws
    // CongestViolation on any breach.
    result_ = build(graph_, congest_spec(c.kappa, c.rho, c.eps));
  }

  Graph graph_;
  DistributedParams params_;
  BuildOutput result_;
};

TEST_P(DistributedSweep, SizeBound) {
  EXPECT_LE(result_.h().num_edges(),
            size_bound_edges(graph_.num_vertices(), GetParam().kappa));
}

TEST_P(DistributedSweep, StretchBound) {
  const auto report = evaluate_stretch_exact(
      graph_, result_.h(), params_.schedule.alpha_bound(),
      params_.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0)
      << "alpha=" << params_.schedule.alpha_bound()
      << " beta=" << params_.schedule.beta_bound()
      << " max_add=" << report.max_additive;
  EXPECT_EQ(report.underruns, 0);
}

TEST_P(DistributedSweep, BothEndpointsKnowEveryEdge) {
  // The paper's central distributed obligation (§1.2.1): for every emulator
  // edge, both endpoints are aware of it and its weight.
  EXPECT_TRUE(result_.endpoints_consistent());
}

TEST_P(DistributedSweep, WeightsNeverBelowTrueDistance) {
  const auto report =
      audit_edge_weights(result_.result, graph_, /*exact=*/false);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(DistributedSweep, PartitionAndRadiusAudits) {
  const auto partitions =
      audit_partitions(result_.result, graph_.num_vertices());
  EXPECT_TRUE(partitions.ok()) << partitions.to_string();
  const auto laminar = audit_laminarity(result_.result);
  EXPECT_TRUE(laminar.ok()) << laminar.to_string();
  const auto radii = audit_radii(result_.result, params_.schedule);
  EXPECT_TRUE(radii.ok()) << radii.to_string();
}

TEST_P(DistributedSweep, RoundsWithinSchedule) {
  // Per-phase upper bound from the construction:
  //   detect: 2 * delta_i * (deg_i + 1)   (two Algorithm 2 runs)
  //   ruling: base * levels * (2 delta_i + 2)
  //   forest: rul_i + delta_i + 1
  //   backtrack: (rul_i + delta_i) * (2 deg_i + 2) + epoch
  std::int64_t budget = 0;
  for (int i = 0; i <= params_.schedule.ell(); ++i) {
    const double deg = params_.schedule.deg[static_cast<std::size_t>(i)];
    const Dist delta = params_.schedule.delta[static_cast<std::size_t>(i)];
    const Dist rul = params_.rul[static_cast<std::size_t>(i)];
    const std::int64_t cap = static_cast<std::int64_t>(std::ceil(deg)) + 1;
    budget += 2 * delta * cap;                                    // detections
    budget += params_.ruling_base * params_.ruling_levels * (2 * delta + 2);
    budget += rul + delta + 1;                                    // forest
    budget += (rul + delta) * (2 * cap + 2) + (rul + delta) + 8 * cap + 16;
  }
  EXPECT_LE(result_.net.rounds, budget);
  EXPECT_GT(result_.net.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributedSweep,
    ::testing::Values(
        DistCase{"er", 128, 4, 0.49, 0.4, 1},
        DistCase{"er", 192, 8, 0.4, 0.4, 2},
        DistCase{"ba", 128, 4, 0.49, 0.4, 3},
        DistCase{"torus", 144, 4, 0.45, 0.4, 4},
        DistCase{"star", 128, 4, 0.45, 0.4, 5},
        DistCase{"caveman", 128, 4, 0.49, 0.4, 6},
        DistCase{"tree", 127, 4, 0.45, 0.4, 7},
        DistCase{"cycle", 128, 4, 0.45, 0.4, 8}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      return info.param.family + "_n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.kappa) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(EmulatorDistributed, AgreesWithFastOnInvariants) {
  // The distributed and fast-centralized builds need not produce identical
  // emulators (hub splitting differs), but both satisfy identical bounds.
  const Graph g = gen_connected_gnm(160, 480, 9);
  const auto dist = build(g, congest_spec(4, 0.49, 0.4));
  const std::int64_t bound = size_bound_edges(160, 4);
  EXPECT_LE(dist.h().num_edges(), bound);
}

TEST(EmulatorDistributed, HubSplittingTriggersAndStaysCorrect) {
  // Paper Figure 7: when more than 2*deg_i + 2 convergecast messages meet
  // at one vertex, it must split from its tree and form superclusters
  // locally. Force this with hub_threshold_factor = 1 (threshold deg+2) on
  // a graph with many popular pockets, verify the hub path actually ran
  // (hub_events > 0) and that every guarantee still holds.
  const Graph g = gen_caveman(24, 8);  // 192 vertices
  BuildSpec spec = congest_spec(4, 0.49, 0.4);
  spec.exec.hub_threshold_factor = 1;
  const auto r = build(g, spec);
  const auto params = DistributedParams::compute(192, 4, 0.49, 0.4);
  std::int64_t hubs = 0;
  for (const auto& p : r.result.phases) hubs += p.hub_events;
  EXPECT_GT(hubs, 0) << "workload failed to exercise the hub path";
  EXPECT_TRUE(r.endpoints_consistent());
  EXPECT_LE(r.h().num_edges(), size_bound_edges(192, 4));
  const auto report = evaluate_stretch_exact(
      g, r.h(), params.schedule.alpha_bound(), params.schedule.beta_bound());
  EXPECT_EQ(report.violations, 0);

  // The paper's default factor 2 on the same input: also fully valid, and
  // the factor reaches the builder (it changes the traffic).
  const auto r2 = build(g, congest_spec(4, 0.49, 0.4));
  EXPECT_TRUE(r2.endpoints_consistent());
  EXPECT_LE(r2.h().num_edges(), size_bound_edges(192, 4));
  EXPECT_NE(r.net.rounds, r2.net.rounds);
}

TEST(EmulatorDistributed, HubThresholdFactorBelowOneThrows) {
  // The factor must be >= 1; a smaller one is an error, not a silent 1.
  const Graph g = gen_family("caveman", 256, 88);
  for (const int factor : {0, -5}) {
    BuildSpec spec = congest_spec(4, 0.49, 0.4);
    spec.exec.hub_threshold_factor = factor;
    EXPECT_THROW(build(g, spec), std::invalid_argument) << "factor " << factor;
  }
}

TEST(EmulatorDistributed, MessageTrafficIsMetered) {
  const Graph g = gen_connected_gnm(96, 288, 14);
  const auto r = build(g, congest_spec(4, 0.49, 0.4));
  EXPECT_GT(r.net.messages, 0);
  EXPECT_GE(r.net.words, r.net.messages);  // every message >= 1 word
  // Words per message within the O(1) cap.
  EXPECT_LE(r.net.words, r.net.messages * congest::kMaxWords);
}

TEST(EmulatorDistributed, DeterministicIncludingRounds) {
  const Graph g = gen_connected_gnm(96, 288, 15);
  const auto a = build(g, congest_spec(4, 0.49, 0.4));
  const auto b = build(g, congest_spec(4, 0.49, 0.4));
  EXPECT_EQ(a.h().edges(), b.h().edges());
  EXPECT_EQ(a.net.rounds, b.net.rounds);
  EXPECT_EQ(a.net.messages, b.net.messages);
}

TEST(EmulatorDistributed, DenseDetectRoundsAreDeliveredByPull) {
  // perfbench's congest_build configuration (er 2^14 at graph seed 1,
  // kappa 4, rho 0.45, 2 lanes).
  // p1.detect's capped Bellman-Ford only broadcasts, and its densest rounds
  // cover most directed edges, so the Network pulls some of them.
  const Graph g = gen_family("er", 16384, 1);
  BuildSpec spec = congest_spec(4, 0.45, 0.25);
  spec.exec.num_threads = 2;
  spec.exec.profile = true;
  const BuildOutput out = build(g, spec);
  bool found = false;
  for (const congest::PhaseProfileEntry& e : out.profile) {
    EXPECT_LE(e.times.pull_rounds, e.times.rounds) << e.label;
    if (e.label != "p1.detect") continue;
    found = true;
    EXPECT_GT(e.times.pull_rounds, 0);
    EXPECT_LT(e.times.pull_rounds, e.times.rounds);
  }
  EXPECT_TRUE(found);
}

TEST(EmulatorDistributed, FaultyAndAsyncBuildsNeverPull) {
  // Only the built-in Ideal model's rounds may go by pull: under Faulty and
  // Async every round goes through the model, so each sees its per-edge
  // batch. The Ideal build of the same graph shows the traffic is dense
  // enough to pull.
  const Graph g = gen_family("er", 512, 2024);
  const auto pull_rounds = [&](congest::TransportModel model) {
    BuildSpec spec = congest_spec(4, 0.45, 0.25);
    spec.exec.profile = true;
    spec.exec.transport.model = model;
    // Each model reads only its own knobs.
    spec.exec.transport.drop_p = 0.05;
    spec.exec.transport.latency_max = 3;
    std::int64_t pulls = 0;
    for (const congest::PhaseProfileEntry& e : build(g, spec).profile) {
      pulls += e.times.pull_rounds;
    }
    return pulls;
  };
  EXPECT_GT(pull_rounds(congest::TransportModel::kIdeal), 0);
  EXPECT_EQ(pull_rounds(congest::TransportModel::kFaulty), 0);
  EXPECT_EQ(pull_rounds(congest::TransportModel::kAsync), 0);
}

}  // namespace
}  // namespace usne
