// Unit tests for src/util: units, rng, stats, strings, table, spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/log.h"
#include "src/util/rng.h"
#include "src/util/spec.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace hogsim {
namespace {

TEST(Units, TransferTimeRoundsUp) {
  // 1 byte at 1 B/s is exactly one second.
  EXPECT_EQ(TransferTime(1, 1.0), kSecond);
  // A fractional tick rounds up so data never arrives early.
  EXPECT_EQ(TransferTime(1, 3.0), kSecond / 3 + 1);
  EXPECT_EQ(TransferTime(0, 100.0), 0);
  EXPECT_EQ(TransferTime(-5, 100.0), 0);
}

TEST(Units, SecondsRoundTrip) {
  EXPECT_EQ(FromSeconds(1.5), kSecond + 500 * kMillisecond);
  EXPECT_DOUBLE_EQ(ToSeconds(FromSeconds(42.25)), 42.25);
}

TEST(Units, RateHelpers) {
  EXPECT_DOUBLE_EQ(Gbps(1.0), 1e9 / 8.0);
  EXPECT_DOUBLE_EQ(MiBps(1.0), 1024.0 * 1024.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(64 * kMiB), "64.0 MiB");
  EXPECT_EQ(FormatBytes(3 * kGiB / 2), "1.5 GiB");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(FormatDuration(FromSeconds(0.5)), "500.0ms");
  EXPECT_EQ(FormatDuration(FromSeconds(61)), "61.0s");
  EXPECT_EQ(FormatDuration(FromSeconds(125)), "2m05s");
  EXPECT_EQ(FormatDuration(FromSeconds(3725)), "1h02m");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIndependence) {
  Rng parent(7);
  Rng a = parent.Fork("alpha");
  Rng b = parent.Fork("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkSameLabelDifferentDrawsStillDiffer) {
  // Forks consume parent state, so two same-label forks differ too.
  Rng parent(7);
  Rng a = parent.Fork("x");
  Rng b = parent.Fork("x");
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Rng, UniformIntBounds) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Exponential(14.0));
  EXPECT_NEAR(stats.mean(), 14.0, 0.5);
  EXPECT_GT(stats.min(), 0.0);
}

TEST(Rng, NextDoubleRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsZeros) {
  Rng rng(9);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights, 3), 1u);
  }
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, Percentile) {
  using Sample = std::vector<double>;
  EXPECT_DOUBLE_EQ(PercentileSorted(Sample{1, 2, 3, 4, 5}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(Sample{1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(PercentileSorted(Sample{1, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(Sample{1, 5}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(std::span<const double>{}, 0.5), 0.0);
}

TEST(Stats, PercentileSortedMatchesPercentile) {
  // The percentiles of {9, 1, 4, 4, 2, 8, 7}, read off its sorted copy: q
  // interpolates between order statistics at position q * 6.
  std::vector<double> sorted{9, 1, 4, 4, 2, 8, 7};
  std::sort(sorted.begin(), sorted.end());
  const std::pair<double, double> expected[] = {
      {0.0, 1.0}, {0.25, 3.0}, {0.5, 4.0}, {0.9, 8.4}, {0.95, 8.7}, {1.0, 9.0}};
  for (const auto& [q, value] : expected) {
    EXPECT_DOUBLE_EQ(PercentileSorted(sorted, q), value) << "q=" << q;
  }
}

TEST(Stats, StepSeriesOutOfOrderRecordClampsInsteadOfCorrupting) {
  const LogLevel prev = Logger::level();
  Logger::set_level(LogLevel::kOff);  // the clamp warns; keep the test quiet
  StepSeries s;
  s.Record(FromSeconds(10), 1.0);
  s.Record(FromSeconds(5), 2.0);  // out of order: clamped to t=10s
  EXPECT_EQ(s.points().size(), 1u);
  EXPECT_DOUBLE_EQ(s.At(FromSeconds(10)), 2.0);
  EXPECT_DOUBLE_EQ(s.At(FromSeconds(7)), 0.0);
  s.Record(FromSeconds(20), 3.0);  // series still usable afterwards
  EXPECT_DOUBLE_EQ(s.At(FromSeconds(20)), 3.0);
  Logger::set_level(prev);
}

TEST(Stats, StepSeriesAtAndArea) {
  StepSeries s;
  s.Record(0, 10.0);
  s.Record(FromSeconds(10), 20.0);
  s.Record(FromSeconds(30), 0.0);
  EXPECT_DOUBLE_EQ(s.At(-1), 0.0);
  EXPECT_DOUBLE_EQ(s.At(FromSeconds(5)), 10.0);
  EXPECT_DOUBLE_EQ(s.At(FromSeconds(10)), 20.0);
  EXPECT_DOUBLE_EQ(s.At(FromSeconds(100)), 0.0);
  // 10*10 + 20*20 = 500 over [0, 30s].
  EXPECT_DOUBLE_EQ(s.AreaUnder(0, FromSeconds(30)), 500.0);
  // Partial window [5s, 15s]: 10*5 + 20*5 = 150.
  EXPECT_DOUBLE_EQ(s.AreaUnder(FromSeconds(5), FromSeconds(15)), 150.0);
  EXPECT_DOUBLE_EQ(s.MeanOver(0, FromSeconds(30)), 500.0 / 30.0);
}

TEST(Stats, StepSeriesSkipsRedundantPoints) {
  StepSeries s;
  s.Record(0, 5.0);
  s.Record(FromSeconds(1), 5.0);
  s.Record(FromSeconds(2), 6.0);
  EXPECT_EQ(s.points().size(), 2u);
}

TEST(Stats, StepSeriesOverwriteSameTime) {
  StepSeries s;
  s.Record(0, 1.0);
  s.Record(0, 2.0);
  EXPECT_DOUBLE_EQ(s.At(0), 2.0);
  EXPECT_EQ(s.points().size(), 1u);
}

TEST(Stats, StepSeriesSample) {
  StepSeries s;
  s.Record(0, 1.0);
  s.Record(FromSeconds(10), 3.0);
  const auto samples = s.Sample(0, FromSeconds(20), FromSeconds(10));
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].second, 1.0);
  EXPECT_DOUBLE_EQ(samples[1].second, 3.0);
  EXPECT_DOUBLE_EQ(samples[2].second, 3.0);
}

TEST(Strings, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("YES", "yes"));
  EXPECT_FALSE(EqualsIgnoreCase("YES", "no"));
  EXPECT_FALSE(EqualsIgnoreCase("YES", "YESS"));
}

// The paper's site detection rule: last two DNS labels (§III.B.1).
TEST(Strings, SiteFromHostname) {
  EXPECT_EQ(SiteFromHostname("node042.red.unl.edu"), "unl.edu");
  EXPECT_EQ(SiteFromHostname("worker.site.edu"), "site.edu");
  EXPECT_EQ(SiteFromHostname("a.b"), "a.b");
  EXPECT_EQ(SiteFromHostname("localhost"), "localhost");
  EXPECT_EQ(SiteFromHostname(""), "unknown");
  EXPECT_EQ(SiteFromHostname("  cms-001.fnal.gov  "), "fnal.gov");
}

// Malformed and FQDN-style names must not wrap rfind's size_t position:
// ".edu" used to come back as "edu" via an underflowed re-find of dot 0.
TEST(Strings, SiteFromHostnameDotEdges) {
  EXPECT_EQ(SiteFromHostname(".edu"), "unknown");
  EXPECT_EQ(SiteFromHostname("."), "unknown");
  EXPECT_EQ(SiteFromHostname("..."), "unknown");
  EXPECT_EQ(SiteFromHostname(".a.b"), "unknown");
  EXPECT_EQ(SiteFromHostname("host."), "host");
  EXPECT_EQ(SiteFromHostname("node.site.edu."), "site.edu");
  EXPECT_EQ(SiteFromHostname("host"), "host");
  EXPECT_EQ(SiteFromHostname("a.b.c.d"), "c.d");
}

TEST(Spec, ReadsConsumeKeysAndFinishNamesTheRest) {
  Spec spec("capacity:queues=a:1:1;b:2:1;tick_s=4;8;k=2;left=1");
  EXPECT_EQ(spec.name(), "capacity");
  // A segment without '=' extends the previous key's list.
  EXPECT_EQ(spec.List("queues"), (std::vector<std::string>{"a:1:1", "b:2:1"}));
  EXPECT_EQ(spec.Int("k", 0, 1, 4), 2);
  EXPECT_EQ(spec.Number("absent", 1.5), 1.5);
  // A one-value key given a list is rejected, naming the key.
  try {
    spec.Number("tick_s", 0);
    ADD_FAILURE() << "a list passed as a number";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tick_s"), std::string::npos)
        << e.what();
  }
  // Finish names the one key no read consumed.
  try {
    spec.Finish();
    ADD_FAILURE() << "an unread key passed Finish";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'left'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Spec("fair:tick_s=1;tick_s=2"), std::invalid_argument);
  // Numbers are whole finite decimal tokens; Int takes base 10 only.
  EXPECT_EQ(ParseNumber("0.25"), 0.25);
  for (const char* bad : {"", "5abc", " 4", "+4", "0x10", "inf", "nan",
                          "1e400"}) {
    EXPECT_FALSE(ParseNumber(bad).has_value()) << bad;
  }
  EXPECT_EQ(ParseInteger("-3"), -3);
  for (const char* bad : {"2.9", "5abc", "99999999999999999999"}) {
    EXPECT_FALSE(ParseInteger(bad).has_value()) << bad;
  }
}

TEST(Table, PrintAligned) {
  TextTable t({"a", "long_header"});
  t.AddRow({"hello", "1"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_EQ(os.str(),
            "| a     | long_header |\n"
            "|-------|-------------|\n"
            "| hello | 1           |\n");
}

}  // namespace
}  // namespace hogsim
