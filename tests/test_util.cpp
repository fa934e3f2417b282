// Unit tests for src/util: RNG determinism and distribution sanity, integer
// math helpers, table rendering, CLI flag parsing.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace usne {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kSamples / kBuckets * 0.9);
    EXPECT_LT(c, kSamples / kBuckets * 1.1);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Math, IpowSat) {
  EXPECT_EQ(ipow_sat(2, 0), 1);
  EXPECT_EQ(ipow_sat(2, 10), 1024);
  EXPECT_EQ(ipow_sat(3, 4), 81);
  EXPECT_EQ(ipow_sat(10, 19), INT64_MAX);  // overflow saturates
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(Math, SizeBoundEdges) {
  // n^(1+1/kappa) for n=1024, kappa=2 is 1024^1.5 = 32768.
  EXPECT_EQ(size_bound_edges(1024, 2), 32768);
  // kappa=10: 1024^1.1 = 2048.0 exactly (2^11).
  EXPECT_EQ(size_bound_edges(1024, 10), 2048);
  // Large kappa approaches n.
  EXPECT_GE(size_bound_edges(1000, 1000), 1000);
}

TEST(Math, DigitsInBase) {
  EXPECT_EQ(digits_in_base(10, 10), 1);
  EXPECT_EQ(digits_in_base(11, 10), 2);
  EXPECT_EQ(digits_in_base(100, 10), 2);
  EXPECT_EQ(digits_in_base(101, 10), 3);
  EXPECT_EQ(digits_in_base(1024, 2), 10);
}

TEST(Math, DigitAt) {
  EXPECT_EQ(digit_at(1234, 10, 0), 4);
  EXPECT_EQ(digit_at(1234, 10, 1), 3);
  EXPECT_EQ(digit_at(1234, 10, 3), 1);
  EXPECT_EQ(digit_at(5, 2, 0), 1);
  EXPECT_EQ(digit_at(5, 2, 1), 0);
  EXPECT_EQ(digit_at(5, 2, 2), 1);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
}

TEST(Table, MarkdownRendering) {
  Table t({"a", "bb"});
  t.row().add("x").add(std::int64_t{42});
  t.row().add("longer").add(3.14159, 2);
  const std::string md = t.markdown();
  EXPECT_NE(md.find("| a      | bb   |"), std::string::npos);
  EXPECT_NE(md.find("| x      | 42   |"), std::string::npos);
  EXPECT_NE(md.find("3.14"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.row().add("1").add("with,comma");
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("a,b"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
}

TEST(Table, PrintWithTitle) {
  Table t({"col"});
  t.row().add("v");
  std::ostringstream os;
  t.print(os, "My Title");
  EXPECT_NE(os.str().find("### My Title"), std::string::npos);
}

TEST(Table, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

Cli make_cli(std::vector<std::string> args,
             std::map<std::string, std::string> spec,
             bool allow_positional = false,
             std::set<std::string> switches = {}) {
  // Cli copies everything it keeps, so locals are fine here.
  std::vector<std::string> storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& s : storage) argv.push_back(s.data());
  return Cli(static_cast<int>(argv.size()), argv.data(), std::move(spec),
             allow_positional, std::move(switches));
}

TEST(Cli, TypedAccessors) {
  const Cli cli = make_cli({"--n=42", "--eps", "0.5", "--name", "er"},
                           {{"n", ""}, {"eps", ""}, {"name", ""}});
  EXPECT_TRUE(cli.errors().empty());
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0), 0.5);
  EXPECT_EQ(cli.get("name", ""), "er");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, NumericFlagsParseTheWholeValue) {
  // A prefix parse would read "12abc" as 12 and "" as 0. Malformed and
  // out-of-range values throw instead, naming the flag.
  const Cli cli = make_cli(
      {"--junk=12abc", "--empty=", "--int-big=99999999999999999999",
       "--dbl-big=1e999", "--neg=-5"},
      {{"junk", ""}, {"empty", ""}, {"int-big", ""}, {"dbl-big", ""},
       {"neg", ""}});
  ASSERT_TRUE(cli.errors().empty());
  for (const char* flag : {"junk", "empty"}) {
    EXPECT_THROW(cli.get_int(flag, 0), std::invalid_argument) << flag;
    EXPECT_THROW(cli.get_double(flag, 0), std::invalid_argument) << flag;
  }
  EXPECT_THROW(cli.get_int("int-big", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("dbl-big", 0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("neg", 0), -5);
  EXPECT_DOUBLE_EQ(cli.get_double("neg", 0), -5.0);
  try {
    cli.get_int("junk", 0);
    ADD_FAILURE() << "get_int accepted 12abc";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--junk"), std::string::npos);
  }
}

TEST(Cli, NarrowIntegerFlagsAreRangeChecked) {
  // 2^32 + 44 fits int64 but not int: read as an int it must throw naming
  // the flag and int's range, not wrap to 44.
  const Cli cli = make_cli(
      {"--n=4294967340", "--neg=-2147483649", "--max=2147483647", "--k=8"},
      {{"n", ""}, {"neg", ""}, {"max", ""}, {"k", ""}});
  ASSERT_TRUE(cli.errors().empty());
  EXPECT_EQ(cli.get_int("n", 0), 4294967340);
  try {
    cli.get_int_as<int>("n", 0);
    ADD_FAILURE() << "get_int_as<int> accepted 4294967340";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--n"), std::string::npos) << what;
    EXPECT_NE(what.find("[-2147483648, 2147483647]"), std::string::npos)
        << what;
  }
  EXPECT_THROW(cli.get_int_as<std::int32_t>("neg", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int_as<std::uint8_t>("max", 0), std::invalid_argument);
  EXPECT_EQ(cli.get_int_as<int>("max", 0), 2147483647);
  EXPECT_EQ(cli.get_int_as<int>("k", 0), 8);
  EXPECT_EQ(cli.get_int_as<int>("missing", 5), 5);
  EXPECT_THROW(parse_flag<int>("threads", "12abc"), std::invalid_argument);
  EXPECT_EQ(parse_flag<int>("threads", "-3"), -3);
}

TEST(Cli, GetBool) {
  const Cli cli = make_cli(
      {"--flag", "--yes=true", "--no=false", "--off", "0", "--junk=maybe"},
      {{"flag", ""}, {"yes", ""}, {"no", ""}, {"off", ""}, {"junk", ""}},
      /*allow_positional=*/false, /*switches=*/{"flag"});
  EXPECT_TRUE(cli.get_bool("flag", false));  // bare switch
  EXPECT_TRUE(cli.get_bool("yes", false));
  EXPECT_FALSE(cli.get_bool("no", true));
  EXPECT_FALSE(cli.get_bool("off", true));    // "--off 0" two-token form
  EXPECT_TRUE(cli.get_bool("junk", true));    // unparsable -> fallback
  EXPECT_FALSE(cli.get_bool("junk", false));
  EXPECT_TRUE(cli.get_bool("absent", true));  // missing -> fallback
}

TEST(Cli, SwitchNeverConsumesNextToken) {
  // "--audit foo": audit is a declared switch, so foo stays positional
  // instead of being swallowed as audit's value (which would silently
  // disable the flag via get_bool's fallback).
  const Cli cli = make_cli({"--audit", "spanner"}, {{"audit", ""}},
                           /*allow_positional=*/true, /*switches=*/{"audit"});
  EXPECT_TRUE(cli.errors().empty());
  EXPECT_TRUE(cli.get_bool("audit", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "spanner");
  // Explicit =value still works for switches.
  const Cli off = make_cli({"--audit=false"}, {{"audit", ""}},
                           /*allow_positional=*/true, /*switches=*/{"audit"});
  EXPECT_FALSE(off.get_bool("audit", true));
}

TEST(Cli, ValueFlagWithoutValueIsAnError) {
  // A bare "--json" must not silently become the value "1" (and then a
  // stray file named "1").
  const Cli cli = make_cli({"--json"}, {{"json", ""}});
  ASSERT_EQ(cli.errors().size(), 1u);
  EXPECT_NE(cli.errors()[0].find("requires a value"), std::string::npos);
  EXPECT_FALSE(cli.has("json"));
}

TEST(Cli, PositionalArgumentsWhenAllowed) {
  const Cli cli = make_cli({"spanner", "--n=8", "second"}, {{"n", ""}},
                           /*allow_positional=*/true);
  EXPECT_TRUE(cli.errors().empty());
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "spanner");
  EXPECT_EQ(cli.positional()[1], "second");
  EXPECT_EQ(cli.get_int("n", 0), 8);
}

TEST(Cli, PositionalArgumentsRejectedByDefault) {
  // A single-dash typo like `-n 8` must not silently fall back to flag
  // defaults in the binaries that take no positionals.
  const Cli cli = make_cli({"-n", "8"}, {{"n", ""}});
  ASSERT_EQ(cli.errors().size(), 2u);
  EXPECT_NE(cli.errors()[0].find("positional"), std::string::npos);
  EXPECT_TRUE(cli.positional().empty());
}

TEST(Cli, UnknownFlagStillReported) {
  const Cli cli = make_cli({"--bogus=1"}, {{"n", ""}});
  ASSERT_EQ(cli.errors().size(), 1u);
  EXPECT_NE(cli.errors()[0].find("bogus"), std::string::npos);
}

TEST(Mem, RssHelpersReportPlausibleValues) {
  // A live Linux process has a positive resident set, and the high-water
  // mark can never undercut the current value. (On platforms without
  // /proc the helpers return -1; the E10 accounting treats that as
  // "unknown", so this test only asserts when the probe works.)
  const std::int64_t current = util::current_rss_bytes();
  const std::int64_t peak = util::peak_rss_bytes();
  if (current >= 0) {
    EXPECT_GT(current, 0);
  }
  ASSERT_GT(peak, 0);  // getrusage fallback exists everywhere we build
  if (current >= 0) {
    EXPECT_GE(peak, current);
  }
  EXPECT_GT(util::peak_rss_mb(), 0.0);
}

TEST(Mem, PeakRssIsMonotoneAndTracksAllocation) {
  const std::int64_t before = util::peak_rss_bytes();
  // Touch 32 MiB so the high-water mark must move if it was near current.
  std::vector<char> ballast(32u << 20, 1);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 2;
  const std::int64_t after = util::peak_rss_bytes();
  EXPECT_GE(after, before);
}

}  // namespace
}  // namespace usne
