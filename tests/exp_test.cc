// Unit tests for the exp::Sweep parallel multi-seed harness: determinism
// (parallel == sequential, bit for bit), aggregation, BENCH_*.json
// serialization, the bench flags, and exp::HogRun.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/bench_main.h"
#include "src/exp/experiment.h"
#include "src/exp/paper_runs.h"
#include "src/exp/sweep.h"
#include "src/fault/scenario.h"
#include "src/sim/simulation.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace hogsim::exp {
namespace {

// A small but real simulation per run: schedule events at random times,
// cancel a third, run to completion, report counters. Everything is a
// function of (config, seed) only, so two executions must agree exactly.
Metrics SimWorkload(std::size_t config, std::uint64_t seed) {
  sim::Simulation sim;
  Rng rng(seed + 1000 * (config + 1));
  std::vector<sim::EventHandle> handles;
  double sum = 0.0;
  const int n = 2000;
  handles.reserve(n);
  for (int i = 0; i < n; ++i) {
    handles.push_back(sim.ScheduleAt(rng.UniformInt(0, 1'000'000),
                                     [&] { sum += ToSeconds(sim.now()); }));
  }
  for (int i = 0; i < n; i += 3) {
    sim.Cancel(handles[static_cast<std::size_t>(i)]);
  }
  sim.RunAll();
  return {{"executed", static_cast<double>(sim.executed())},
          {"sum_fire_time_s", sum},
          {"compactions", static_cast<double>(sim.compactions())}};
}

TEST(Sweep, ParallelIsBitIdenticalToSequential) {
  SweepSpec spec;
  spec.name = "determinism";
  spec.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.configs = 2;

  spec.threads = 1;  // sequential reference, no pool at all
  const SweepResult sequential = RunSweep(spec, SimWorkload);
  spec.threads = 4;
  const SweepResult parallel = RunSweep(spec, SimWorkload);

  ASSERT_EQ(sequential.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < sequential.runs.size(); ++i) {
    EXPECT_EQ(sequential.runs[i].config_index, parallel.runs[i].config_index);
    EXPECT_EQ(sequential.runs[i].seed, parallel.runs[i].seed);
    ASSERT_EQ(sequential.runs[i].metrics.size(),
              parallel.runs[i].metrics.size());
    for (std::size_t m = 0; m < sequential.runs[i].metrics.size(); ++m) {
      EXPECT_EQ(sequential.runs[i].metrics[m].first,
                parallel.runs[i].metrics[m].first);
      // Bit-exact, not approximately equal.
      EXPECT_EQ(sequential.runs[i].metrics[m].second,
                parallel.runs[i].metrics[m].second);
    }
  }
  // And the serialized artifacts agree byte for byte.
  EXPECT_EQ(ToBenchJson(spec, sequential), ToBenchJson(spec, parallel));
}

TEST(Sweep, RunsAreConfigMajorSeedMinor) {
  SweepSpec spec;
  spec.seeds = {10, 20};
  spec.configs = 2;
  spec.threads = 2;
  const auto result =
      RunSweep(spec, [](std::size_t c, std::uint64_t s) -> Metrics {
        return {{"id", static_cast<double>(100 * c + s)}};
      });
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.runs[0].metrics[0].second, 10);   // c0 s10
  EXPECT_EQ(result.runs[1].metrics[0].second, 20);   // c0 s20
  EXPECT_EQ(result.runs[2].metrics[0].second, 110);  // c1 s10
  EXPECT_EQ(result.runs[3].metrics[0].second, 120);  // c1 s20
  EXPECT_EQ(result.run(1, 0, spec.seeds.size()).seed, 10u);
}

TEST(Sweep, AggregatesSummaries) {
  SweepSpec spec;
  spec.seeds = {1, 2, 3, 4};
  spec.configs = 1;
  spec.threads = 1;
  const auto result =
      RunSweep(spec, [](std::size_t, std::uint64_t seed) -> Metrics {
        return {{"v", static_cast<double>(seed)}};
      });
  ASSERT_EQ(result.summaries.size(), 1u);
  ASSERT_EQ(result.summaries[0].size(), 1u);
  const MetricSummary& s = result.summaries[0][0];
  EXPECT_EQ(s.name, "v");
  EXPECT_EQ(s.stats.count(), 4u);
  EXPECT_DOUBLE_EQ(s.stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  EXPECT_GT(s.ci95_halfwidth, 0.0);
}

TEST(Sweep, WritesBenchJson) {
  SweepSpec spec;
  spec.name = "core";
  spec.seeds = {7, 9};
  spec.configs = 1;
  spec.config_labels = {"schedule_fire"};
  spec.threads = 2;
  const auto result = RunSweep(spec, SimWorkload);

  const std::string json = ToBenchJson(spec, result);
  EXPECT_NE(json.find("\"name\": \"core\""), std::string::npos);
  EXPECT_NE(json.find("\"seeds\": [7, 9]"), std::string::npos);
  EXPECT_NE(json.find("\"config\": \"schedule_fire\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"executed\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"ci95\""), std::string::npos);
}

// The thread count is a pure performance knob: any pool width must produce
// the same artifact, byte for byte. (PR 1's harness promised this for
// 1-vs-4; the regression wall pins the whole matrix, including widths that
// do not divide the task count evenly.)
TEST(Sweep, ByteIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.name = "thread_matrix";
  spec.seeds = {3, 1, 4, 1, 5, 9, 2, 6};  // duplicates on purpose
  spec.configs = 3;

  spec.threads = 1;
  const std::string reference = ToBenchJson(spec, RunSweep(spec, SimWorkload));
  for (unsigned threads : {2u, 3u, 8u, 64u}) {
    spec.threads = threads;
    EXPECT_EQ(reference, ToBenchJson(spec, RunSweep(spec, SimWorkload)))
        << "threads=" << threads;
  }
}

// Hand-computed percentile fixtures (linear interpolation between order
// statistics, pos = q * (n - 1)).
TEST(Stats, PercentileSortedHandComputedFixtures) {
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_NEAR(PercentileSorted(ten, 0.50), 5.5, 1e-12);
  EXPECT_NEAR(PercentileSorted(ten, 0.95), 9.55, 1e-12);
  EXPECT_NEAR(PercentileSorted(ten, 0.99), 9.91, 1e-12);
  EXPECT_DOUBLE_EQ(PercentileSorted(ten, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(ten, 1.0), 10.0);
  // q outside [0, 1] clamps rather than indexing out of range.
  EXPECT_DOUBLE_EQ(PercentileSorted(ten, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(ten, 1.5), 10.0);

  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(PercentileSorted(one, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(PercentileSorted({}, 0.5), 0.0);
}

// The 95% CI half-width is 1.96 * sample stddev / sqrt(n). For {1,2,3,4}:
// mean 2.5, sample variance 5/3.
TEST(Sweep, Ci95MatchesHandComputedFixture) {
  SweepSpec spec;
  spec.seeds = {1, 2, 3, 4};
  spec.configs = 1;
  spec.threads = 1;
  const auto result =
      RunSweep(spec, [](std::size_t, std::uint64_t seed) -> Metrics {
        return {{"v", static_cast<double>(seed)}};
      });
  const MetricSummary& s = result.summaries[0][0];
  EXPECT_DOUBLE_EQ(s.stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.stats.variance(), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.stats.stddev(), std::sqrt(5.0 / 3.0));
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth, 1.96 * std::sqrt(5.0 / 3.0) / 2.0);
}

// A metric that is unmeasurable for one run (NaN — e.g. a fig4 deployment
// that never reached its node target) is excluded from the summary instead
// of poisoning the mean and the percentile sort, and serializes as null.
TEST(Sweep, NonFiniteRunValuesAreExcludedFromSummaries) {
  SweepSpec spec;
  spec.name = "nan";
  spec.seeds = {1, 2, 3, 4};
  spec.configs = 1;
  spec.threads = 1;
  const auto result =
      RunSweep(spec, [](std::size_t, std::uint64_t seed) -> Metrics {
        return {{"v", seed == 3 ? std::nan("") : static_cast<double>(seed)}};
      });
  const MetricSummary& s = result.summaries[0][0];
  EXPECT_EQ(s.stats.count(), 3u);  // 1, 2, 4
  EXPECT_DOUBLE_EQ(s.stats.mean(), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  const std::string json = ToBenchJson(spec, result);
  EXPECT_NE(json.find("\"v\": null"), std::string::npos);
}

// Golden-output test: integral values render exactly, so the whole
// artifact can be pinned byte for byte. Guards the BENCH_*.json format
// against accidental drift (compare_bench and external tooling parse it).
// A run must report its config's metrics in its config's layout: one that
// does not fails the summary, naming the config, seed and metric, instead
// of dropping out of that metric's mean.
TEST(Sweep, MisShapedRunThrowsNamingConfigSeedAndMetric) {
  SweepSpec spec;
  spec.seeds = {1, 2};
  spec.config_labels = {"c"};
  spec.threads = 1;
  const auto message = [&spec](const Metrics& second) -> std::string {
    try {
      RunSweep(spec, [&](std::size_t, std::uint64_t seed) {
        return seed == 1 ? Metrics{{"a", 1}, {"b", 2}} : second;
      });
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_EQ(message({{"b", 2}, {"a", 1}}),
            "c seed 2: metric 0 is \"b\", but seed 1 has \"a\"");
  EXPECT_EQ(message({{"a", 1}}),
            "c seed 2: metric 1 is nothing, but seed 1 has \"b\"");
  EXPECT_EQ(message({{"a", 1}, {"b", 2}}), "no throw");
}

TEST(Sweep, GoldenBenchJson) {
  SweepSpec spec;
  spec.name = "golden";
  spec.seeds = {5};
  spec.configs = 1;
  spec.config_labels = {"cfg"};
  spec.threads = 1;
  const auto result =
      RunSweep(spec, [](std::size_t, std::uint64_t) -> Metrics {
        return {{"v", 7.0}, {"u", std::nan("")}};
      });
  const std::string expected =
      "{\n"
      "  \"name\": \"golden\",\n"
      "  \"configs\": 1,\n"
      "  \"seeds\": [5],\n"
      "  \"summaries\": [\n"
      "    {\"config\": \"cfg\", \"metric\": \"v\", \"count\": 1, "
      "\"mean\": 7, \"stddev\": 0, \"min\": 7, \"max\": 7, \"p50\": 7, "
      "\"p95\": 7, \"p99\": 7, \"ci95\": 0},\n"
      "    {\"config\": \"cfg\", \"metric\": \"u\", \"count\": 0, "
      "\"mean\": null, \"stddev\": null, \"min\": null, \"max\": null, "
      "\"p50\": null, \"p95\": null, \"p99\": null, \"ci95\": null}\n"
      "  ],\n"
      "  \"runs\": [\n"
      "    {\"config\": \"cfg\", \"seed\": 5, \"metrics\": {\"v\": 7, "
      "\"u\": null}}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(ToBenchJson(spec, result), expected);
}

// A metric no run measured has no mean: Mean is NaN, so a gate or a note
// never reads 0 for it, while a partly measured one averages its
// measured seeds.
TEST(Sweep, UnmeasuredMetricHasNoMean) {
  SweepSpec spec;
  spec.seeds = {1, 2};
  spec.threads = 1;
  const auto result =
      RunSweep(spec, [](std::size_t, std::uint64_t seed) -> Metrics {
        return {{"never", std::nan("")},
                {"once", seed == 2 ? 4.0 : std::nan("")}};
      });
  EXPECT_EQ(result.Summary(0, "never").stats.count(), 0u);
  EXPECT_TRUE(std::isnan(result.Mean(0, "never")));
  EXPECT_EQ(result.Summary(0, "once").stats.count(), 1u);
  EXPECT_EQ(result.Mean(0, "once"), 4.0);
  const std::string json = ToBenchJson(spec, result);
  EXPECT_NE(
      json.find("\"metric\": \"never\", \"count\": 0, \"mean\": null"),
      std::string::npos)
      << json;
}

TEST(BenchMain, DefaultSeedsProgression) {
  EXPECT_EQ(DefaultSeeds(0), (std::vector<std::uint64_t>{}));
  EXPECT_EQ(DefaultSeeds(2), (std::vector<std::uint64_t>{11, 23}));
  EXPECT_EQ(DefaultSeeds(3), (std::vector<std::uint64_t>{11, 23, 47}));
  // Past the paper's trio: s[i] = 2 * s[i-1] + 1.
  EXPECT_EQ(DefaultSeeds(5),
            (std::vector<std::uint64_t>{11, 23, 47, 95, 191}));
}

TEST(BenchMain, ParseBenchOptionsFlags) {
  const char* argv[] = {"bench", "--seeds=2,4,8", "--threads=3",
                        "--out=/tmp/x.json", "--fast"};
  const BenchOptions opts =
      ParseBenchOptions(5, const_cast<char* const*>(argv));
  EXPECT_EQ(opts.seeds, (std::vector<std::uint64_t>{2, 4, 8}));
  EXPECT_EQ(opts.threads, 3u);
  EXPECT_EQ(opts.out, "/tmp/x.json");
  EXPECT_TRUE(opts.fast);
}

TEST(BenchMain, ParseBenchOptionsObsFlags) {
  const char* argv[] = {"bench", "--metrics-out=/tmp/m.json",
                        "--trace-out=/tmp/t.json"};
  const BenchOptions opts =
      ParseBenchOptions(3, const_cast<char* const*>(argv));
  EXPECT_EQ(opts.metrics_out, "/tmp/m.json");
  EXPECT_EQ(opts.trace_out, "/tmp/t.json");

  // Both default to disabled.
  const char* argv2[] = {"bench"};
  const BenchOptions defaults =
      ParseBenchOptions(1, const_cast<char* const*>(argv2));
  EXPECT_TRUE(defaults.metrics_out.empty());
  EXPECT_TRUE(defaults.trace_out.empty());
}

TEST(BenchMain, SingleBareSeedsNumberIsACount) {
  const char* argv[] = {"bench", "--seeds=4"};
  const BenchOptions opts =
      ParseBenchOptions(2, const_cast<char* const*>(argv));
  EXPECT_EQ(opts.seeds, (std::vector<std::uint64_t>{11, 23, 47, 95}));

  // ...unless it is too large to plausibly be a count.
  const char* argv2[] = {"bench", "--seeds=1234"};
  const BenchOptions opts2 =
      ParseBenchOptions(2, const_cast<char* const*>(argv2));
  EXPECT_EQ(opts2.seeds, (std::vector<std::uint64_t>{1234}));
}

TEST(Sweep, PropagatesWorkerExceptions) {
  SweepSpec spec;
  spec.seeds = {1, 2, 3};
  spec.configs = 1;
  spec.threads = 3;
  EXPECT_THROW(RunSweep(spec,
                        [](std::size_t, std::uint64_t seed) -> Metrics {
                          if (seed == 2) throw std::runtime_error("boom");
                          return {{"ok", 1.0}};
                        }),
               std::runtime_error);
}

TEST(RunRecord, MetricLookupIsByNameNotPosition) {
  RunRecord run;
  run.metrics = {{"violations", 0.0}, {"outputs_lost", 2.0},
                 {"bytes_stored_gib", 7.5}};
  EXPECT_EQ(run.Metric("outputs_lost"), 2.0);
  // Reordering the emission (what silently re-targeted positional gates)
  // must not change what a named lookup reads.
  std::swap(run.metrics[0], run.metrics[2]);
  std::swap(run.metrics[1], run.metrics[2]);
  EXPECT_EQ(run.metrics[1].first, "violations");
  EXPECT_EQ(run.Metric("violations"), 0.0);
  EXPECT_EQ(run.Metric("outputs_lost"), 2.0);
  EXPECT_EQ(run.Metric("bytes_stored_gib"), 7.5);
}

TEST(RunRecord, UnknownMetricThrowsNamingMetricAndConfig) {
  RunRecord run;
  run.config_index = 3;
  run.seed = 11;
  run.metrics = {{"audit_violations", 0.0}};
  try {
    run.Metric("audit_violation");  // misspelt: must not read as 0
    FAIL() << "unknown metric name did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"audit_violation\""), std::string::npos) << what;
    EXPECT_NE(what.find("config 3"), std::string::npos) << what;
  }
}

TEST(SweepResult, SummaryLookupIsByName) {
  SweepSpec spec;
  spec.seeds = {1, 2};
  spec.configs = 2;
  const SweepResult result =
      RunSweep(spec, [](std::size_t config, std::uint64_t seed) -> Metrics {
        return {{"response_s", 100.0 * static_cast<double>(config + 1)},
                {"seed", static_cast<double>(seed)}};
      });
  EXPECT_EQ(result.Summary(1, "response_s").stats.mean(), 200.0);
  EXPECT_EQ(result.Summary(0, "seed").stats.mean(), 1.5);
  EXPECT_EQ(&result.Summary(0, "seed"), &result.summaries[0][1]);
}

TEST(SweepResult, UnknownSummaryThrowsNamingMetricAndConfig) {
  SweepSpec spec;
  spec.seeds = {1};
  spec.configs = 2;
  const SweepResult result = RunSweep(
      spec, [](std::size_t, std::uint64_t) -> Metrics { return {{"u", 1}}; });
  for (const std::size_t config : {std::size_t{1}, std::size_t{7}}) {
    try {
      (void)result.Summary(config, "v");
      FAIL() << "unknown summary did not throw";
    } catch (const std::out_of_range& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("\"v\""), std::string::npos) << what;
      EXPECT_NE(what.find("config " + std::to_string(config)),
                std::string::npos)
          << what;
    }
  }
}

TEST(BenchMainDeathTest, DuplicateSeedExitsWithUsageError) {
  // A repeated seed would run twice and collide in the per-seed tables
  // (fig5_table4).
  const char* argv[] = {"bench", "--seeds=11,23,11"};
  EXPECT_EXIT(ParseBenchOptions(2, const_cast<char* const*>(argv)),
              ::testing::ExitedWithCode(2), "duplicate seed 11");
}

TEST(BenchMainDeathTest, OutOfRangeSeedsAndThreadsExitWithUsageError) {
  // Values past 2^64 used to wrap (seed 18446744073709551627 ran as 11);
  // a seed past 2^53, given or from the count progression, would not read
  // back exactly from the BENCH JSON.
  for (const std::string arg :
       {"--seeds=18446744073709551627,5", "--seeds=9007199254740993,5",
        "--seeds=-1,5", "--seeds=51", "--threads=18446744073709551617",
        "--threads=1025"}) {
    const char* argv[] = {"bench", arg.c_str()};
    EXPECT_EXIT(ParseBenchOptions(2, const_cast<char* const*>(argv)),
                ::testing::ExitedWithCode(2),
                "bad " + arg.substr(0, arg.find('=')) + " value")
        << arg;
  }
}

TEST(BenchMainDeathTest, UnknownSchedulerExitsWithUsageError) {
  // Every HOG run builds the policy, so a bad spec must fail the parse,
  // not abort the sweep mid-run.
  const char* argv[] = {"bench", "--scheduler=lottery"};
  EXPECT_EXIT(ParseBenchOptions(2, const_cast<char* const*>(argv)),
              ::testing::ExitedWithCode(2), "bad --scheduler value");
  const char* bad_value[] = {"bench", "--scheduler=fair:tick_s=5abc"};
  EXPECT_EXIT(ParseBenchOptions(2, const_cast<char* const*>(bad_value)),
              ::testing::ExitedWithCode(2), "bad --scheduler value.*tick_s");
}

TEST(BenchMain, HogRunOptionsCarryEveryHogFlag) {
  const char* argv[] = {"bench",
                        "--audit",
                        "--scheduler=fair",
                        "--topology=tor:racks=4;oversub=4",
                        "--detector=phi:threshold=8",
                        "--repl-target=0.999"};
  const HogRunOptions ropts =
      ParseBenchOptions(6, const_cast<char* const*>(argv)).hog;
  EXPECT_TRUE(ropts.audit);
  EXPECT_TRUE(ropts.audit_fail_fast);
  EXPECT_EQ(ropts.scheduler, "fair");
  EXPECT_EQ(ropts.topology, "tor:racks=4;oversub=4");
  EXPECT_EQ(ropts.detector, "phi:threshold=8");
  EXPECT_EQ(ropts.repl_target, 0.999);
  // No bench-owned knob leaks in: the drain and the audit cadence stay
  // at the plain run's defaults.
  EXPECT_EQ(ropts.drain_deadline, HogRunOptions{}.drain_deadline);
  EXPECT_EQ(ropts.audit_period, HogRunOptions{}.audit_period);

  const char* plain[] = {"bench"};
  const HogRunOptions none =
      ParseBenchOptions(1, const_cast<char* const*>(plain)).hog;
  EXPECT_FALSE(none.audit);
  EXPECT_FALSE(none.audit_fail_fast);
  EXPECT_TRUE(none.scheduler.empty());
  EXPECT_TRUE(none.topology.empty());
  EXPECT_TRUE(none.detector.empty());
  EXPECT_EQ(none.repl_target, 0.0);
}

// --fast is the only way to trim a run: a stray HOGSIM_FAST=1 export must
// not silently trim a baseline regeneration.
TEST(BenchMain, EnvironmentDoesNotSetFast) {
  ASSERT_EQ(setenv("HOGSIM_FAST", "1", 1), 0);
  const char* argv[] = {"bench"};
  const BenchOptions opts = ParseBenchOptions(1, const_cast<char* const*>(argv));
  unsetenv("HOGSIM_FAST");
  EXPECT_FALSE(opts.fast);
}

int RunWithScenario(const Experiment& experiment, const char* scenario) {
  std::string prog = "hogbench " + std::string(experiment.name);
  std::string flag = std::string("--scenario=") + scenario;
  char* argv[] = {prog.data(), flag.data()};
  return RunExperiment(experiment, 2, argv);
}

// An experiment whose runs would not inject --scenario refuses it with a
// usage error instead of silently running without it.
TEST(BenchMain, ExperimentsThatDoNotInjectTheScenarioRefuseIt) {
  const std::vector<std::string> refusing = {
      "table1", "table2", "table3", "soak", "sched", "scale", "repl", "topo",
      "gray"};
  for (const Experiment* experiment : Experiments()) {
    const bool refuses =
        std::find(refusing.begin(), refusing.end(), experiment->name) !=
        refusing.end();
    EXPECT_EQ(experiment->takes_scenario, !refuses) << experiment->name;
    if (refuses) {
      EXPECT_EQ(RunWithScenario(*experiment, "scenarios/site_storm.txt"), 2)
          << experiment->name;
    }
  }
}

TEST(BenchMainDeathTest, RefusedScenarioNamesTheExperiment) {
  EXPECT_EXIT(std::exit(RunWithScenario(*FindExperiment("gray"),
                                        "/nonexistent.txt")),
              ::testing::ExitedWithCode(2),
              "hogbench gray: --scenario is not injected");
}

// Every experiment that takes --scenario loads it up front: a missing
// file fails before any run starts.
TEST(BenchMainDeathTest, EveryScenarioExperimentLoadsTheScenario) {
  for (const Experiment* experiment : Experiments()) {
    if (!experiment->takes_scenario) continue;
    EXPECT_EXIT(RunWithScenario(*experiment, "/nonexistent.txt"),
                ::testing::ExitedWithCode(2), "bad --scenario")
        << experiment->name;
  }
}

// One small audited, drained HOG run through HogRun: two site kills at
// replication 3 fail jobs and lose committed outputs. The pinned values
// are RunHogWorkload's result for these inputs, which a change to HogRun
// must reproduce exactly, as must a twin run.
TEST(HogRun, AuditedDrainedRunIsPinnedAndTwinIdentical) {
  const fault::Scenario storm = fault::ParseScenario(
      "at 20m preempt-site 0 1.0\nat 21m preempt-site 2 1.0\n", "<pin>");
  const auto run = [&storm] {
    hog::HogConfig config;
    config.hdfs.default_replication = 3;
    HogRunOptions options;
    options.audit = true;
    options.drain_deadline = 30 * kMinute;
    return RunHogWorkload(55, 11, config, &storm, options);
  };
  const HogRunResult first = run();
  EXPECT_TRUE(first.reached_target);
  EXPECT_EQ(first.workload.response_time_s, 1934.784407);
  EXPECT_EQ(first.workload.succeeded, 70);
  EXPECT_EQ(first.workload.failed, 18);
  EXPECT_TRUE(first.workload.completed);
  EXPECT_EQ(first.preemptions, 59u);
  EXPECT_EQ(first.outputs_lost, 5u);
  EXPECT_EQ(first.audit_passes, 212u);
  EXPECT_EQ(first.audit_violations, 0u);
  EXPECT_EQ(first.faults_injected, 2u);
  // The drain empties the under-replication queue, but five committed
  // outputs are gone: not fully replicated, and no time to measure.
  EXPECT_FALSE(first.fully_replicated);
  EXPECT_TRUE(std::isnan(first.time_to_full_replication_s));

  const HogRunResult twin = run();
  EXPECT_EQ(twin.workload.response_time_s, first.workload.response_time_s);
  EXPECT_EQ(twin.workload.job_response_s, first.workload.job_response_s);
  EXPECT_EQ(twin.preemptions, first.preemptions);
  EXPECT_EQ(twin.outputs_lost, first.outputs_lost);
  EXPECT_EQ(twin.audit_passes, first.audit_passes);
  EXPECT_EQ(twin.area_beneath_curve, first.area_beneath_curve);
  EXPECT_EQ(twin.bytes_stored, first.bytes_stored);
  EXPECT_EQ(twin.repair_bytes, first.repair_bytes);
  EXPECT_EQ(twin.fully_replicated, first.fully_replicated);
  EXPECT_TRUE(std::isnan(twin.time_to_full_replication_s));
}

}  // namespace
}  // namespace hogsim::exp
