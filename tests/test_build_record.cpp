// Pins the whole build record of the SAI constructions, not only H: phase
// statistics, the edge log's order, kind and charge, the partition
// snapshots, the U_i membership and, for the CONGEST builders, the
// simulator's metering and every vertex's local edge knowledge. The audits
// read all of these, so a refactor of a builder must leave each of them
// byte-identical. The digests were recorded with emulator and spanner
// builders that each carried their own copy of the phase loop.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "serve/query_engine.hpp"
#include "test_helpers.hpp"

namespace usne {
namespace {

constexpr std::size_t kFields = 6;
constexpr std::array<const char*, kFields> kFieldNames = {
    "h", "phases", "edge_log", "clusters", "net", "local"};
using Digests = std::array<std::uint64_t, kFields>;

/// Folds `values` into the FNV-1a digest `h`.
template <typename... T>
void mix(std::uint64_t& h, T... values) {
  ((h = serve::checksum_accumulate(h, static_cast<std::int64_t>(values))), ...);
}

/// One FNV-1a digest per part of the record, in kFieldNames order: H in
/// insertion order; the phase stats and total_rounds; the edge log; the
/// partition snapshots and the U_i membership; the network and transport
/// counters; every vertex's local knowledge.
Digests record_digests(const BuildOutput& out) {
  const BuildResult& r = out.result;
  Digests d;
  d.fill(serve::kChecksumSeed);
  for (const WeightedEdge& e : r.h.edges()) mix(d[0], e.u, e.v, e.w);
  for (const PhaseStats& p : r.phases) {
    mix(d[1], p.phase, p.clusters_in, p.clusters_out, p.unclustered, p.popular,
        p.interconnect_edges, p.supercluster_edges, p.buffer_join_edges,
        p.hub_events, std::bit_cast<std::int64_t>(p.deg_threshold), p.delta,
        p.rounds, p.rounds_detect, p.rounds_ruling, p.rounds_forest,
        p.rounds_backtrack, p.rounds_interconnect);
  }
  mix(d[1], r.total_rounds);
  for (const ChargedEdge& e : r.edge_log) {
    mix(d[2], e.u, e.v, e.w, e.phase, e.kind, e.charged_to);
  }
  for (const std::vector<Cluster>& partition : r.partitions) {
    mix(d[3], partition.size());
    for (const Cluster& c : partition) {
      mix(d[3], c.center, c.size());
      for (const Vertex m : c.members) mix(d[3], m);
    }
  }
  for (std::size_t v = 0; v < r.u_level.size(); ++v) {
    mix(d[3], r.u_level[v], r.u_center[v]);
  }
  mix(d[4], out.net.rounds, out.net.messages, out.net.words,
      out.transport.dropped, out.transport.duplicated, out.transport.delayed,
      out.transport.delay_rounds);
  mix(d[5], out.local.size());
  for (const auto& known : out.local) {
    mix(d[5], known.size());
    for (const auto& [other, w] : known) mix(d[5], other, w);
  }
  return d;
}

constexpr congest::TransportSpec kFaulty{.model = congest::TransportModel::kFaulty,
                                         .seed = 7, .drop_p = 0.05, .dup_p = 0.02};
constexpr congest::TransportSpec kAsync{.model = congest::TransportModel::kAsync,
                                        .seed = 7, .latency_max = 4};

/// The profile label of a CONGEST construction's Task 3, which perfbench
/// reads as congest.task.<label>.wall_s; nullptr for the centralized ones.
const char* task3_label(const std::string& algorithm) {
  if (algorithm == "emulator_congest") return "backtrack";
  return describe(algorithm).model == "congest" ? "upcast" : nullptr;
}

struct RecordPin {
  const char* algorithm;
  const char* family;
  Vertex n;
  ParamSet params;
  ExecOptions exec;
  Digests want;
};

constexpr ParamSet kSmoke{.kappa = 4, .eps = 0.4, .rho = 0.49};
constexpr ParamSet kCaveman{.kappa = 8, .eps = 0.25, .rho = 0.3};

// Graphs are gen_family(family, n, 2024), as in scripts/pins.json's h_digest
// pins.
// At the smoke settings spanner = spanner_em19; on caveman n = 4096 the two
// degree sequences part. On caveman n = 256, emulator_congest's Task 3
// splits hubs at hub threshold factor 1 (and none at the paper's 2).
TEST(BuildRecord, PinnedDigests) {
  const RecordPin pins[] = {
      {"emulator_fast", "er", 128, kSmoke, {},
       {0x837868406b709ee1, 0xdb4623e940a7e87a, 0x824a8d6c4fa11361,
        0xa2bc31686b6acf5b, 0x8ac123d6f7dce585, 0xa8c7f832281a39c5}},
      {"spanner", "er", 128, kSmoke, {},
       {0x2e9dffcaa15384f5, 0x1075e63758f03f13, 0xf2d65fcc90a0ce9b,
        0xa2bc31686b6acf5b, 0x8ac123d6f7dce585, 0xa8c7f832281a39c5}},
      {"spanner_em19", "er", 128, kSmoke, {},
       {0x2e9dffcaa15384f5, 0x07c29f323352cbf9, 0xf2d65fcc90a0ce9b,
        0xa2bc31686b6acf5b, 0x8ac123d6f7dce585, 0xa8c7f832281a39c5}},
      {"emulator_fast", "caveman", 4096, kCaveman, {},
       {0xaaab344ccce36833, 0xad905d9b5bd57663, 0x62a4a20e4caf35db,
        0xa1d814fc1c5d8ef6, 0x8ac123d6f7dce585, 0xa8c7f832281a39c5}},
      {"spanner", "caveman", 4096, kCaveman, {},
       {0xba932e98c0d7c369, 0xe8b18e0c4e53160f, 0x3bdf58b578574848,
        0x384b2b7182f31d5f, 0x8ac123d6f7dce585, 0xa8c7f832281a39c5}},
      {"spanner_em19", "caveman", 4096, kCaveman, {},
       {0xb92f4a6e01f88d1f, 0x25f41271a23eac6f, 0x0789b8a5392e582c,
        0xa1d814fc1c5d8ef6, 0x8ac123d6f7dce585, 0xa8c7f832281a39c5}},
      {"emulator_congest", "er", 128, kSmoke, {},
       {0x6e1c3042930e6c3c, 0x5b9b01f060a3e635, 0x7d400add3ae9b711,
        0x419cd03530b6e7b7, 0x9c53d76c61b6f771, 0x837e1342af84b3f1}},
      {"spanner_congest", "er", 128, kSmoke, {},
       {0x517cbc0f5ab158ab, 0x2cc2aa05dfc9a378, 0xab2144573ad94a0c,
        0xa2bc31686b6acf5b, 0xf94ec5767240c79d, 0xa8c7f832281a39c5}},
      {"spanner_congest_em19", "er", 128, kSmoke, {},
       {0x517cbc0f5ab158ab, 0x703f1dff24a3aa84, 0xab2144573ad94a0c,
        0xa2bc31686b6acf5b, 0x458722cbb2a64f1b, 0xa8c7f832281a39c5}},
      {"emulator_congest", "caveman", 256, kSmoke, {},
       {0x980b492a111238d2, 0xf5bc62e274a6ad4c, 0x4cde841bc6a30a18,
        0x374b632493bf0164, 0x017c3f267eea1f2d, 0x0dc6e2f7b2b25300}},
      {"emulator_congest", "caveman", 256, kSmoke, {.hub_threshold_factor = 1},
       {0x540bd0c3c319077b, 0xf184909f51af14f3, 0x60e6702a0ca39c04,
        0xda44180155ac68e2, 0x8f7594817e1ff4aa, 0x2c991bdda42b89d3}},
      {"emulator_congest", "er", 128, kSmoke, {.transport = kFaulty},
       {0xeeb735caebb9621a, 0x3fc6a59a27bd28db, 0xefb86fd7760e496f,
        0x25c69f551658b34e, 0x983f1a3aaad5ed31, 0xced33ae7f4e37c10}},
      {"emulator_congest", "er", 128, kSmoke, {.transport = kAsync},
       {0x2c995031a5f208b1, 0x7a69a74b5b5a358a, 0xe491ceafc4e6dbf1,
        0x84f6fc3f03292625, 0x3ec07e5f8a71f323, 0xc0bcb5e63b821a5d}},
      {"spanner_congest", "er", 128, kSmoke, {.transport = kFaulty},
       {0xd8d4b5c597658e7a, 0xb8c02f04ecb10115, 0xdb05cfcfcc77c9d7,
        0x9326611b5ce3ee39, 0x6cf663a6ae851cd1, 0xa8c7f832281a39c5}},
      {"spanner_congest", "er", 128, kSmoke, {.transport = kAsync},
       {0x2c995031a5f208b1, 0x3a3d8144bfab237e, 0x236b8e76a791aab1,
        0x84f6fc3f03292625, 0x734bb067d72e1f03, 0xa8c7f832281a39c5}},
      {"spanner_congest_em19", "er", 128, kSmoke, {.transport = kFaulty},
       {0xd8d4b5c597658e7a, 0xdaeab350e5d965e5, 0xdb05cfcfcc77c9d7,
        0x9326611b5ce3ee39, 0x5c77ecef33e86864, 0xa8c7f832281a39c5}},
      {"spanner_congest_em19", "er", 128, kSmoke, {.transport = kAsync},
       {0x2c995031a5f208b1, 0xf72d8584ca30e42e, 0x236b8e76a791aab1,
        0x84f6fc3f03292625, 0xf8df1e4d603adff1, 0xa8c7f832281a39c5}},
  };
  for (const RecordPin& p : pins) {
    // Outputs are bit-identical at any thread count (the centralized
    // builders ignore it) and with profiling on or off.
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << p.algorithm << " " << p.family << " n=" << p.n
                   << " threads=" << threads
                   << " hub_factor=" << p.exec.hub_threshold_factor << " transport="
                   << congest::transport_model_name(p.exec.transport.model));
      BuildSpec spec{p.algorithm, p.params, p.exec};
      spec.exec.num_threads = threads;
      spec.exec.profile = threads > 1;
      const BuildOutput out = build(gen_family(p.family, p.n, 2024), spec);
      const Digests got = record_digests(out);
      for (std::size_t f = 0; f < kFields; ++f) {
        EXPECT_EQ(got[f], p.want[f])
            << kFieldNames[f] << ": got 0x" << std::hex << got[f];
      }
      if (spec.exec.profile) {
        std::vector<std::string> labels;
        double high_water = 0;
        for (const congest::PhaseProfileEntry& e : out.profile) {
          labels.push_back(e.label);
          EXPECT_GT(e.peak_rss_mb, 0.0) << e.label;
          EXPECT_GE(e.peak_rss_mb, high_water) << e.label;  // never falls
          high_water = e.peak_rss_mb;
        }
        EXPECT_EQ(labels, test::profile_labels(out.result.phases,
                                               task3_label(p.algorithm)));
      }
      if (p.exec.hub_threshold_factor == 1) {
        std::int64_t hub_events = 0;
        for (const PhaseStats& s : out.result.phases) hub_events += s.hub_events;
        EXPECT_GT(hub_events, 0) << "the run no longer splits hubs";
      }
    }
  }
}

}  // namespace
}  // namespace usne
