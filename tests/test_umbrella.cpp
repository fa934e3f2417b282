// Smoke test: the umbrella header compiles standalone and the advertised
// entry points are reachable through it.

#include "usne.hpp"

#include <gtest/gtest.h>

namespace usne {
namespace {

TEST(Umbrella, EndToEndThroughSingleInclude) {
  const Graph g = gen_connected_gnm(120, 360, 1);
  const auto params = CentralizedParams::compute(120, 4, 0.25);
  const auto r = build_emulator_centralized(g, params);
  EXPECT_LE(r.h.num_edges(), emulator_size_bound(120, 4));
  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params = {0, 8, 0.25, 0.3, false};
  const serve::QueryEngine engine(build(g, spec));
  EXPECT_GE(engine.query(0, 1), 1);
}

}  // namespace
}  // namespace usne
