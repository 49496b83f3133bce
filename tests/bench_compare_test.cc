// Unit tests for the BENCH_*.json reader and the exact per-run rule behind
// the compare_bench tool: round-tripping ToBenchJson output, matching runs
// by (config, seed), exact equality of deterministic rows, host rows that
// are only reported, and malformed input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/bench_compare.h"
#include "src/exp/sweep.h"

namespace hogsim::exp {
namespace {

/// A sched-shaped file: fifo, fair and atlas x seeds 11/23/47, two
/// deterministic rows and one host row per run.
BenchFile SchedFile() {
  BenchFile file;
  file.name = "sched";
  double x = 1;
  for (const char* config : {"fifo", "fair", "atlas"}) {
    for (const std::uint64_t seed : {11, 23, 47}) {
      x += 1;
      file.runs.push_back({config,
                           seed,
                           {{"jobs_succeeded", 30 + x},
                            {"response_s", 1000 + 100 * x},
                            {"host.wall_s", 0.5 * x}}});
    }
  }
  return file;
}

/// Applies `edit` to the value of `metric` in every run of `config`.
BenchFile Edit(BenchFile file, const std::string& config,
               const std::string& metric,
               const std::function<double(double)>& edit) {
  for (BenchRun& run : file.runs) {
    if (run.config != config) continue;
    for (auto& [name, value] : run.metrics) {
      if (name == metric) value = edit(value);
    }
  }
  return file;
}

TEST(BenchCompare, RoundTripsToBenchJsonOutput) {
  SweepSpec spec;
  spec.name = "roundtrip";
  spec.seeds = {11, 23, 47};
  spec.configs = 2;
  spec.config_labels = {"a", "b"};
  spec.threads = 1;
  const auto result =
      RunSweep(spec, [](std::size_t c, std::uint64_t seed) -> Metrics {
        // Thirds are not exact decimals: %.17g must still read back equal.
        return {{"response_s", static_cast<double>(seed) / (c + 3.0)},
                {"jobs_ok", 88.0},
                {"host.wall_s", 0.1 * static_cast<double>(seed)}};
      });

  const BenchFile parsed = ParseBenchJson(ToBenchJson(spec, result));
  EXPECT_EQ(parsed.name, "roundtrip");
  ASSERT_EQ(parsed.runs.size(), result.runs.size());
  for (std::size_t i = 0; i < parsed.runs.size(); ++i) {
    EXPECT_EQ(parsed.runs[i].config, spec.Label(result.runs[i].config_index));
    EXPECT_EQ(parsed.runs[i].seed, result.runs[i].seed);
    EXPECT_EQ(parsed.runs[i].metrics, result.runs[i].metrics);
  }
}

TEST(BenchCompare, NullMetricValueParsesAsNaN) {
  const BenchFile parsed = ParseBenchJson(
      "{\"name\": \"n\", \"configs\": 1, \"seeds\": [1],\n"
      "  \"summaries\": [],\n"
      "  \"runs\": [{\"config\": \"c\", \"seed\": 1, \"metrics\": "
      "{\"m\": null}}]}");
  ASSERT_EQ(parsed.runs.size(), 1u);
  ASSERT_EQ(parsed.runs[0].metrics.size(), 1u);
  EXPECT_EQ(parsed.runs[0].metrics[0].first, "m");
  EXPECT_TRUE(std::isnan(parsed.runs[0].metrics[0].second));
}

TEST(BenchCompare, SelfCompareIsClean) {
  const BenchFile file = SchedFile();
  const BenchComparison cmp = CompareBench(file, file);
  EXPECT_TRUE(cmp.Same());
  EXPECT_EQ(cmp.candidate_runs, 9u);
  EXPECT_EQ(cmp.compared_values, 18u);  // the host row is not compared
  EXPECT_EQ(cmp.untaken_runs, 0u);
  ASSERT_EQ(cmp.host.size(), 3u);  // one host.wall_s mean per config
  for (const HostMean& h : cmp.host) {
    EXPECT_EQ(h.metric, "host.wall_s");
    EXPECT_EQ(h.baseline, h.candidate);
  }
}

TEST(BenchCompare, AddedAndRemovedRowsAreInformational) {
  // Only for host rows: one on either side alone is reported, not compared.
  BenchFile baseline = SchedFile();
  BenchFile candidate = SchedFile();
  baseline.runs[0].metrics.push_back({"host.peak_rss_mib", 60});
  candidate.runs[1].metrics.push_back({"host.events_per_sec", 5e5});
  EXPECT_TRUE(CompareBench(baseline, candidate).Same());

  // A deterministic row on one side only is a difference, either way.
  candidate.runs[2].metrics.push_back({"executed_events", 12345});
  baseline.runs[3].metrics.push_back({"cancelled_events", 7});
  BenchComparison cmp = CompareBench(baseline, candidate);
  EXPECT_FALSE(cmp.Same());
  ASSERT_EQ(cmp.differences.size(), 2u);
  EXPECT_EQ(cmp.differences[0].metric, "executed_events");
  EXPECT_EQ(cmp.differences[0].seed, candidate.runs[2].seed);
  EXPECT_FALSE(cmp.differences[0].baseline);
  EXPECT_EQ(cmp.differences[0].candidate, 12345);
  EXPECT_EQ(cmp.differences[1].metric, "cancelled_events");
  EXPECT_EQ(cmp.differences[1].baseline, 7);
  EXPECT_FALSE(cmp.differences[1].candidate);

  // A candidate run the baseline lacks is a difference.
  candidate = SchedFile();
  candidate.runs.push_back({"capacity", 11, {{"response_s", 1}}});
  cmp = CompareBench(SchedFile(), candidate);
  ASSERT_EQ(cmp.differences.size(), 1u);
  EXPECT_EQ(cmp.differences[0].config, "capacity");
  EXPECT_TRUE(cmp.differences[0].metric.empty());

  // A candidate with no runs fails instead of passing vacuously.
  candidate.runs.clear();
  cmp = CompareBench(SchedFile(), candidate);
  EXPECT_TRUE(cmp.differences.empty());
  EXPECT_EQ(cmp.untaken_runs, 9u);
  EXPECT_FALSE(cmp.Same());
}

TEST(BenchCompare, BecomingUnmeasurableRegresses) {
  const double nan = std::nan("");
  const BenchFile measured = SchedFile();
  const BenchFile unmeasured =
      Edit(measured, "fifo", "response_s", [nan](double) { return nan; });
  // A value that became null differs, and so does one that stopped being
  // null: null equals only null.
  EXPECT_EQ(CompareBench(measured, unmeasured).differences.size(), 3u);
  EXPECT_EQ(CompareBench(unmeasured, measured).differences.size(), 3u);
  EXPECT_TRUE(CompareBench(unmeasured, unmeasured).Same());
}

// The three behaviour edits the CI-overlap rule let through: each one
// changes one row of one config's three runs, and each run is reported.
// A host-row change and a --fast subset of the runs are not differences.
TEST(BenchCompare, EveryChangedRunIsReported) {
  const BenchFile baseline = SchedFile();
  const struct {
    const char* config;
    const char* metric;
    std::function<double(double)> edit;
  } edits[] = {{"fifo", "response_s", [](double v) { return v * 1.08; }},
               {"fair", "response_s", [](double v) { return v / 2; }},
               {"fifo", "jobs_succeeded", [](double v) { return v + 3; }}};
  for (const auto& e : edits) {
    const BenchComparison cmp =
        CompareBench(baseline, Edit(baseline, e.config, e.metric, e.edit));
    EXPECT_FALSE(cmp.Same()) << e.config << " " << e.metric;
    std::set<std::uint64_t> seeds;
    for (const BenchDifference& d : cmp.differences) {
      EXPECT_EQ(d.config, e.config);
      EXPECT_EQ(d.metric, e.metric);
      EXPECT_EQ(d.candidate, e.edit(*d.baseline));
      seeds.insert(d.seed);
    }
    EXPECT_EQ(cmp.differences.size(), 3u) << e.config << " " << e.metric;
    EXPECT_EQ(seeds, (std::set<std::uint64_t>{11, 23, 47}));
  }

  const BenchFile slower =
      Edit(baseline, "fifo", "host.wall_s", [](double v) { return 9 * v; });
  const BenchComparison host = CompareBench(baseline, slower);
  EXPECT_TRUE(host.Same());
  const auto fifo = std::find_if(host.host.begin(), host.host.end(),
                                 [](const HostMean& h) {
                                   return h.config == "fifo";
                                 });
  ASSERT_NE(fifo, host.host.end());
  EXPECT_DOUBLE_EQ(fifo->candidate, 9 * fifo->baseline);

  BenchFile fast = baseline;
  std::erase_if(fast.runs, [](const BenchRun& run) {
    return run.config == "atlas" || run.seed != 11;
  });
  const BenchComparison subset = CompareBench(baseline, fast);
  EXPECT_TRUE(subset.Same());
  EXPECT_EQ(subset.candidate_runs, 2u);
  EXPECT_EQ(subset.untaken_runs, 7u);
}

TEST(BenchCompare, MalformedInputThrows) {
  EXPECT_THROW(ParseBenchJson(""), std::runtime_error);
  EXPECT_THROW(ParseBenchJson("{"), std::runtime_error);
  EXPECT_THROW(ParseBenchJson("[]"), std::runtime_error);  // not an object
  EXPECT_THROW(ParseBenchJson("{\"name\": }"), std::runtime_error);
  EXPECT_THROW(ParseBenchJson("{\"name\": \"x\"} trailing"),
               std::runtime_error);
  EXPECT_THROW(ParseBenchJson("{\"name\": \"x\"}"), std::runtime_error);
  // JSON has no leading '+', and a \u escape takes four hex digits.
  EXPECT_THROW(ParseBenchJson("{\"name\": \"x\", \"seeds\": [+1], "
                              "\"runs\": []}"),
               std::runtime_error);
  EXPECT_THROW(ParseBenchJson("{\"name\": \"a\\uzzzzb\", \"runs\": []}"),
               std::runtime_error);
  // Runs are keyed by seed: one a double cannot hold exactly is refused.
  const std::string run = "{\"name\": \"x\", \"runs\": [{\"config\": \"c\", ";
  EXPECT_NO_THROW(
      ParseBenchJson(run + "\"seed\": 9007199254740992, \"metrics\": {}}]}"));
  EXPECT_THROW(
      ParseBenchJson(run + "\"seed\": 9007199254740994, \"metrics\": {}}]}"),
      std::runtime_error);
  EXPECT_THROW(ParseBenchJson(run + "\"seed\": -1, \"metrics\": {}}]}"),
               std::runtime_error);
  EXPECT_THROW(LoadBenchJson("/nonexistent/BENCH_nope.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace hogsim::exp
