// Smoke test: the umbrella header compiles standalone and the advertised
// entry points are reachable through it.

#include "usne.hpp"

#include <gtest/gtest.h>

namespace usne {
namespace {

TEST(Umbrella, EndToEndThroughSingleInclude) {
  const Graph g = gen_connected_gnm(120, 360, 1);
  BuildSpec spec;
  spec.algorithm = "emulator_centralized";
  spec.params = {4, 0.25, 0.45, false};
  EXPECT_LE(build(g, spec).h().num_edges(), emulator_size_bound(120, 4));
  spec.algorithm = "emulator_fast";
  spec.params = {8, 0.25, 0.3, false};
  const serve::QueryEngine engine(build(g, spec));
  EXPECT_GE(engine.query(0, 1), 1);
}

}  // namespace
}  // namespace usne
