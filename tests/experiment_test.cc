// The hogbench experiment table, its runner, its table renderer, and the
// gates carried over from the per-bench contract loops: each gate fails on
// one violating run, fed through RunSweep with a stand-in run function,
// with a message naming the config, seed and metric, and the same input
// without the violation passes. EXPERIMENTS.md's rendered tables are
// checked against the committed baselines here too.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/auditor.h"
#include "src/exp/bench_compare.h"
#include "src/exp/bench_main.h"
#include "src/exp/experiment.h"
#include "src/exp/experiments.h"
#include "src/sim/simulation.h"

namespace hogsim::exp {
namespace {

int Hogbench(std::vector<std::string> args) {
  args.insert(args.begin(), "hogbench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return HogbenchMain(static_cast<int>(argv.size()), argv.data());
}

int RunFake(const Experiment& experiment, std::vector<std::string> args) {
  args.insert(args.begin(), "hogbench " + std::string(experiment.name));
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return RunExperiment(experiment, static_cast<int>(argv.size()), argv.data());
}

std::string TempDir() {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "hogbench_test_XXXXXX")
                        .string();
  EXPECT_NE(mkdtemp(dir.data()), nullptr);
  return dir;
}

TEST(Experiments, NamesAreUniqueAndFindable) {
  std::set<std::string_view> names;
  for (const Experiment* experiment : Experiments()) {
    EXPECT_TRUE(names.insert(experiment->name).second) << experiment->name;
    EXPECT_EQ(FindExperiment(experiment->name), experiment);
    EXPECT_FALSE(experiment->title.empty()) << experiment->name;
    EXPECT_NE(experiment->plan, nullptr) << experiment->name;
  }
  EXPECT_EQ(names.size(), 20u);
  EXPECT_EQ(FindExperiment("bench_fig4_equivalence"), nullptr);
}

// The runner names the sweep after the experiment: `hogbench X` writes
// BENCH_X.json whose "name" is X.
TEST(Hogbench, WritesBenchJsonNamedAfterTheExperiment) {
  const std::string dir = TempDir();
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  testing::internal::CaptureStdout();
  const int table1 = Hogbench({"table1", "--seeds=1"});
  const int table2 = Hogbench({"table2", "--seeds=1"});
  testing::internal::GetCapturedStdout();
  std::filesystem::current_path(cwd);
  EXPECT_EQ(table1, 0);
  EXPECT_EQ(table2, 0);
  for (const std::string name : {"table1", "table2"}) {
    std::ifstream in(dir + "/BENCH_" + name + ".json");
    ASSERT_TRUE(in) << name;
    std::stringstream json;
    json << in.rdbuf();
    EXPECT_NE(json.str().find("\"name\": \"" + name + "\""),
              std::string::npos)
        << json.str();
  }
  std::filesystem::remove_all(dir);
}

TEST(Hogbench, ListPrintsEveryName) {
  testing::internal::CaptureStdout();
  EXPECT_EQ(Hogbench({"--list"}), 0);
  const std::string listing = testing::internal::GetCapturedStdout();
  std::istringstream lines(listing);
  std::vector<std::string> listed;
  for (std::string line; std::getline(lines, line);) {
    listed.push_back(line.substr(0, line.find(' ')));
  }
  std::vector<std::string> expected;
  for (const Experiment* experiment : Experiments()) {
    expected.emplace_back(experiment->name);
  }
  EXPECT_EQ(listed, expected);
}

TEST(Hogbench, UnknownOrMissingExperimentExitsWithUsageError) {
  EXPECT_EQ(Hogbench({"bench_sched"}), 2);
  EXPECT_EQ(Hogbench({"nope", "--fast"}), 2);
  EXPECT_EQ(Hogbench({}), 2);
}

TEST(HogbenchDeathTest, UnknownFlagExitsWithUsageNamingTheExperiment) {
  EXPECT_EXIT(Hogbench({"table2", "--no-such-flag"}),
              ::testing::ExitedWithCode(2),
              "hogbench table2: unknown argument '--no-such-flag'");
}

TEST(HogbenchDeathTest, UnwritableBenchJsonExitsNonZeroNamingThePath) {
  const std::string dir = TempDir();
  // An existing directory, and a path under a missing one.
  EXPECT_EXIT(std::exit(Hogbench({"table2", "--seeds=1", "--out=" + dir})),
              ::testing::ExitedWithCode(1), "cannot write " + dir);
  EXPECT_EXIT(std::exit(Hogbench({"table2", "--seeds=1",
                                  "--out=" + dir + "/missing/x.json"})),
              ::testing::ExitedWithCode(1),
              "cannot write " + dir + "/missing/x.json");
  std::filesystem::remove_all(dir);
}

// A stand-in experiment: one config whose run builds (and so delivers) a
// Simulation, for the obs-output paths.
Plan OneSimulationPlan(const Setup&) {
  Plan plan;
  plan.configs.push_back({.label = "sim", .run = [](std::uint64_t) {
                            sim::Simulation sim;
                            return Metrics{{"v", 0.0}};
                          }});
  return plan;
}

TEST(HogbenchDeathTest, UnwritableObsOutputExitsNonZeroNamingThePath) {
  const Experiment fake{.name = "fake", .title = "t",
                        .plan = OneSimulationPlan};
  const std::string dir = TempDir();
  const std::string out = "--out=" + dir + "/BENCH_fake.json";
  EXPECT_EXIT(std::exit(RunFake(fake, {"--seeds=1", out,
                                   "--metrics-out=" + dir + "/no/m.json"})),
              ::testing::ExitedWithCode(1), "cannot write " + dir + "/no/m.json");
  EXPECT_EXIT(std::exit(RunFake(fake, {"--seeds=1", out,
                                   "--trace-out=" + dir + "/no/t.json"})),
              ::testing::ExitedWithCode(1), "cannot write " + dir + "/no/t.json");
  // The writable paths pass.
  testing::internal::CaptureStdout();
  EXPECT_EQ(RunFake(fake, {"--seeds=1", out, "--metrics-out=" + dir + "/m.json"}),
            0);
  testing::internal::GetCapturedStdout();
  EXPECT_TRUE(std::filesystem::exists(dir + "/m.json"));
  std::filesystem::remove_all(dir);
}

// A deployment that never comes up measured nothing: the run fails with a
// message naming the experiment, config, seed and node counts, instead of
// adding a 0 s response to its config mean. Two 10-slot sites cannot
// supply 95% of 25 nodes.
Plan MissedSpinUpPlan(const Setup& setup) {
  Plan plan;
  plan.configs.push_back(
      {.label = "twenty_slots", .run = [&setup](std::uint64_t seed) {
         hog::HogConfig config = QuietGrid();
         config.sites.resize(2);
         for (auto& site : config.sites) site.pool_size = 10;
         HogRun run(seed, config, setup.opts.hog);
         run.RequireSpinUp(25);
         return Metrics{{"response_s", 0.0}};
       }});
  return plan;
}

TEST(HogbenchDeathTest, MissedSpinUpFailsTheRunNamingItsTarget) {
  const Experiment fake{.name = "spinup", .title = "t",
                        .plan = MissedSpinUpPlan};
  const std::string dir = TempDir();
  EXPECT_EXIT(
      std::exit(RunFake(fake, {"--seeds=101", "--out=" + dir + "/x.json"})),
      ::testing::ExitedWithCode(1),
      "hogbench spinup: error: twenty_slots seed 101: spin-up missed its "
      "target: [0-9]+ of 25 nodes running");
  EXPECT_FALSE(std::filesystem::exists(dir + "/x.json"));
  std::filesystem::remove_all(dir);
}

// A fail-fast audit violation is one error line and exit 1, not
// std::terminate.
Plan AuditErrorPlan(const Setup&) {
  Plan plan;
  plan.configs.push_back(
      {.label = "audited", .run = [](std::uint64_t) -> Metrics {
         throw check::AuditError(
             {.invariant = "hdfs.holders_bidir", .detail = "block 7"});
       }});
  return plan;
}

TEST(HogbenchDeathTest, AuditErrorExitsNonZeroWithOneLine) {
  const Experiment fake{.name = "audit", .title = "t",
                        .plan = AuditErrorPlan};
  EXPECT_EXIT(std::exit(RunFake(fake, {"--seeds=101", "--threads=1"})),
              ::testing::ExitedWithCode(1),
              "hogbench audit: error: audited seed 101: .*hdfs.holders_bidir");
}

// The verdict of a gated experiment is its exit code.
Plan GatedPlan(const Setup&) {
  Plan plan;
  plan.configs.push_back(
      {.label = "c",
       .checks = {Eq("v", 0)},
       .run = [](std::uint64_t seed) {
         return Metrics{{"v", seed == 23 ? 1.0 : 0.0}};
       }});
  return plan;
}

TEST(Hogbench, GateFailureExitsOne) {
  const Experiment fake{.name = "gated", .title = "t", .plan = GatedPlan};
  const std::string dir = TempDir();
  const std::string out = "--out=" + dir + "/x.json";
  testing::internal::CaptureStdout();
  EXPECT_EQ(RunFake(fake, {"--seeds=11,47", out}), 0);
  EXPECT_EQ(RunFake(fake, {"--seeds=11,23", out}), 1);
  const std::string stdout_text = testing::internal::GetCapturedStdout();
  EXPECT_NE(stdout_text.find("gated PASSED"), std::string::npos);
  EXPECT_NE(stdout_text.find("GATE FAIL: c seed 23: v = 1, want == 0"),
            std::string::npos)
      << stdout_text;
  EXPECT_NE(stdout_text.find("gated FAILED"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// A scheduled fault that reaches no target fails scenario_storm's gate.
TEST(Hogbench, SkippedFaultFailsTheStormGate) {
  const std::string dir = TempDir();
  const std::string scenario = dir + "/skip.txt";
  std::ofstream(scenario) << "at 1s preempt-nodes 9 1\n";  // 5 grid sites
  testing::internal::CaptureStdout();
  const int code =
      RunFake(*FindExperiment("scenario_storm"),
              {"--fast", "--seeds=1", "--scenario=" + scenario,
               "--out=" + dir + "/x.json"});
  const std::string stdout_text = testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 1);
  EXPECT_NE(stdout_text.find(
                "GATE FAIL: hog55 seed 11: faults_skipped = 1, want == 0"),
            std::string::npos)
      << stdout_text;
  std::filesystem::remove_all(dir);
}

// --- the carried-over contracts --------------------------------------------

using FakeRun = std::function<Metrics(const std::string& label,
                                      std::uint64_t seed)>;

void Set(Metrics& metrics, const std::string& name, double value) {
  for (auto& [key, v] : metrics) {
    if (key == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

/// One experiment's full plan at the default seeds, with its gates
/// evaluated over stand-in runs.
class Contract {
 public:
  explicit Contract(std::string_view name) {
    const Experiment* experiment = FindExperiment(name);
    EXPECT_NE(experiment, nullptr) << name;
    plan_ = experiment->plan(setup_);
    spec_.name = std::string(name);
    spec_.seeds = setup_.opts.seeds;
    spec_.configs = plan_.configs.size();
    for (const Config& config : plan_.configs) {
      spec_.config_labels.push_back(config.label);
    }
  }

  std::vector<std::string> Gates(const FakeRun& fake) const {
    const SweepResult result =
        RunSweep(spec_, [&](std::size_t config, std::uint64_t seed) {
          return fake(spec_.config_labels[config], seed);
        });
    return EvaluateGates(plan_, spec_, result);
  }

  /// The table `hogbench <name>` prints for `file`'s runs at the default
  /// seeds. Throws when the file lacks one of the plan's runs.
  std::string Rendered(const BenchFile& file) const {
    SweepResult result;
    for (std::size_t c = 0; c < spec_.configs; ++c) {
      for (const std::uint64_t seed : spec_.seeds) {
        const auto run = std::find_if(
            file.runs.begin(), file.runs.end(), [&](const BenchRun& r) {
              return r.config == spec_.config_labels[c] && r.seed == seed;
            });
        if (run == file.runs.end()) {
          throw std::runtime_error("no run " + spec_.config_labels[c] +
                                   " seed " + std::to_string(seed));
        }
        result.runs.push_back(
            {.config_index = c, .seed = seed, .metrics = run->metrics});
      }
    }
    result.summaries = Summarize(spec_, result.runs);
    std::ostringstream os;
    RenderTable(plan_, spec_, result).Print(os);
    return os.str();
  }

  /// The gates with `fake`'s run of (label, seed) changed by `violate`.
  std::vector<std::string> GatesWith(
      const FakeRun& fake, const std::string& label, std::uint64_t seed,
      const std::function<void(Metrics&)>& violate) const {
    return Gates([&](const std::string& l, std::uint64_t s) {
      Metrics metrics = fake(l, s);
      if (l == label && s == seed) violate(metrics);
      return metrics;
    });
  }

 private:
  Setup setup_;
  Plan plan_;
  SweepSpec spec_;
};

/// True when one failure message contains every fragment.
::testing::AssertionResult Names(const std::vector<std::string>& failures,
                                 const std::vector<std::string>& fragments) {
  for (const std::string& failure : failures) {
    bool all = true;
    for (const std::string& fragment : fragments) {
      all = all && failure.find(fragment) != std::string::npos;
    }
    if (all) return ::testing::AssertionSuccess();
  }
  std::string joined;
  for (const std::string& failure : failures) joined += "\n  " + failure;
  return ::testing::AssertionFailure()
         << "no failure names all fragments; failures:" << joined;
}

TEST(Contracts, SoakEveryRunHealsItself) {
  const Contract soak("soak");
  const FakeRun pass = [](const std::string&, std::uint64_t) -> Metrics {
    return {{"violations", 0},
            {"outputs_lost", 0},
            {"all_terminated", 1},
            {"faults_skipped", 0}};
  };
  EXPECT_TRUE(soak.Gates(pass).empty());
  for (const auto& [metric, value] :
       {std::pair{"violations", 1.0}, {"outputs_lost", 2.0},
        {"all_terminated", 0.0}, {"faults_skipped", 1.0}}) {
    const auto failures = soak.GatesWith(
        pass, "chaos17", 23, [&](Metrics& m) { Set(m, metric, value); });
    EXPECT_EQ(failures.size(), 1u) << metric;
    EXPECT_TRUE(Names(failures, {"chaos17 seed 23", metric}));
  }
}

TEST(Contracts, SchedEveryPolicyRunCompletesAuditClean) {
  const Contract sched("sched");
  const FakeRun pass = [](const std::string&, std::uint64_t) -> Metrics {
    return {{"reached_target", 1}, {"jobs_failed", 3}, {"all_terminated", 1},
            {"audit_violations", 0}};
  };
  // Failed jobs are compared, not gated.
  EXPECT_TRUE(sched.Gates(pass).empty());
  for (const auto& [metric, value] :
       {std::pair{"reached_target", 0.0}, {"all_terminated", 0.0},
        {"audit_violations", 1.0}}) {
    const auto failures = sched.GatesWith(
        pass, "capacity", 47, [&](Metrics& m) { Set(m, metric, value); });
    EXPECT_EQ(failures.size(), 1u) << metric;
    EXPECT_TRUE(Names(failures, {"capacity seed 47", metric}));
  }
}

TEST(Contracts, ScaleEveryPointCompletesWithFewCancellations) {
  const Contract scale("scale");
  const FakeRun pass = [](const std::string& label,
                          std::uint64_t) -> Metrics {
    // Labels end in "-<jobs>j".
    const std::size_t dash = label.rfind('-');
    const double jobs = std::stod(label.substr(dash + 1));
    return {{"reached_target", 1},   {"jobs_succeeded", jobs},
            {"jobs_failed", 0},      {"executed_events", 1000},
            {"cancelled_events", 50}, {"audit_violations", 0}};
  };
  EXPECT_TRUE(scale.Gates(pass).empty());
  const std::pair<const char*, double> violations[] = {
      {"reached_target", 0},
      {"jobs_failed", 1},
      {"jobs_succeeded", 119},  // of 120
      {"audit_violations", 1},
      {"cancelled_events", 51},  // > 0.05 x 1000
  };
  for (const auto& [metric, value] : violations) {
    const auto failures =
        scale.GatesWith(pass, "2000n-20s-120j", 11,
                        [&](Metrics& m) { Set(m, metric, value); });
    EXPECT_EQ(failures.size(), 1u) << metric;
    EXPECT_TRUE(Names(failures, {"2000n-20s-120j seed 11", metric}));
  }
  EXPECT_TRUE(Names(
      scale.GatesWith(pass, "500n-5s-30j", 23,
                      [](Metrics& m) { Set(m, "cancelled_events", 60); }),
      {"500n-5s-30j seed 23", "cancelled_events = 60",
       "<= 0.05 x executed_events (50)"}));
}

TEST(Contracts, ReplDurableRungsKeepOutputsAndAdaptiveStoresLess) {
  const Contract repl("repl");
  const FakeRun pass = [](const std::string& label,
                          std::uint64_t) -> Metrics {
    const double stored = label == "rf10"  ? 10
                          : label == "rf3" ? 3
                          : label == "rf5" ? 5
                                           : 7;
    return {{"violations", 0}, {"outputs_lost", 0}, {"all_terminated", 1},
            {"bytes_stored_gib", stored}};
  };
  EXPECT_TRUE(repl.Gates(pass).empty());
  // The cheap flat rungs may lose outputs; rf10 and the controller may not.
  for (const char* rung : {"rf3", "rf5"}) {
    EXPECT_TRUE(repl.GatesWith(pass, rung, 23, [](Metrics& m) {
                      Set(m, "outputs_lost", 4);
                    }).empty())
        << rung;
  }
  for (const char* durable : {"rf10", "adaptive999", "adaptive9999"}) {
    const auto failures = repl.GatesWith(
        pass, durable, 23, [](Metrics& m) { Set(m, "outputs_lost", 1); });
    EXPECT_EQ(failures.size(), 1u) << durable;
    EXPECT_TRUE(
        Names(failures, {std::string(durable) + " seed 23", "outputs_lost"}));
  }
  for (const auto& [metric, value] :
       {std::pair{"violations", 1.0}, {"all_terminated", 0.0}}) {
    const auto failures = repl.GatesWith(
        pass, "rf3", 47, [&](Metrics& m) { Set(m, metric, value); });
    EXPECT_EQ(failures.size(), 1u) << metric;
    EXPECT_TRUE(Names(failures, {"rf3 seed 47", metric}));
  }
  // Per seed: an adaptive rung storing as much as rf10 fails.
  const auto failures = repl.GatesWith(
      pass, "adaptive9999", 11, [](Metrics& m) { Set(m, "bytes_stored_gib", 10); });
  EXPECT_EQ(failures.size(), 1u);
  EXPECT_TRUE(Names(failures, {"adaptive9999 seed 11", "bytes_stored_gib",
                               "rf10"}));
}

TEST(Contracts, TopoFabricBindsAndEveryRunHeals) {
  const Contract topo("topo");
  const FakeRun pass = [](const std::string& label,
                          std::uint64_t) -> Metrics {
    const bool shuffle = label.ends_with("-shuffle");
    const bool tor16 = label.starts_with("tor16-");
    const bool star = label.starts_with("star-");
    return {{"violations", 0},
            {"outputs_lost", 0},
            {"all_terminated", 1},
            {"response_s", tor16 ? 150.0 : star ? 100.0 : 120.0},
            {"fully_replicated", shuffle ? 0.0 : 1.0},
            {"burst_to_healed_s",
             shuffle ? std::numeric_limits<double>::quiet_NaN()
                     : tor16 ? 80.0 : 50.0}};
  };
  EXPECT_TRUE(topo.Gates(pass).empty());
  for (const auto& [metric, value] :
       {std::pair{"violations", 1.0}, {"outputs_lost", 1.0},
        {"all_terminated", 0.0}}) {
    const auto failures = topo.GatesWith(
        pass, "rotor-shuffle", 23, [&](Metrics& m) { Set(m, metric, value); });
    EXPECT_EQ(failures.size(), 1u) << metric;
    EXPECT_TRUE(Names(failures, {"rotor-shuffle seed 23", metric}));
  }
  // Drain rows must heal; shuffle rows have no drain to heal.
  const auto unhealed = topo.GatesWith(
      pass, "fattree-drain", 47, [](Metrics& m) { Set(m, "fully_replicated", 0); });
  EXPECT_EQ(unhealed.size(), 1u);
  EXPECT_TRUE(Names(unhealed, {"fattree-drain seed 47", "fully_replicated"}));
  // Per seed, tor16 strictly slower than star on both workloads.
  const auto shuffle = topo.GatesWith(
      pass, "tor16-shuffle", 23, [](Metrics& m) { Set(m, "response_s", 100); });
  EXPECT_EQ(shuffle.size(), 1u);
  EXPECT_TRUE(Names(shuffle, {"tor16-shuffle seed 23", "response_s",
                              "star-shuffle"}));
  const auto drain = topo.GatesWith(pass, "star-drain", 11, [](Metrics& m) {
    Set(m, "burst_to_healed_s", 90);
  });
  EXPECT_EQ(drain.size(), 1u);
  EXPECT_TRUE(
      Names(drain, {"tor16-drain seed 11", "burst_to_healed_s", "star-drain"}));
  // A drain that never healed reads NaN, which no per-seed order accepts.
  const auto never = topo.GatesWith(pass, "tor16-drain", 47, [](Metrics& m) {
    Set(m, "burst_to_healed_s", std::numeric_limits<double>::quiet_NaN());
  });
  EXPECT_EQ(never.size(), 1u);
  EXPECT_TRUE(
      Names(never, {"tor16-drain seed 47", "burst_to_healed_s", "star-drain"}));
}

// Frontier values per row: phi quiet at 120 s; dl240 quiet on all but seed
// 23 and slower than phi (phi dominates it); dl90 faster than phi but
// noisy on seed 23; dl30 fast and noisy.
Metrics GrayPass(const std::string& label, std::uint64_t seed) {
  Metrics metrics = {{"reached_target", 1}, {"audit_violations", 0}};
  const auto row = [&](double fp, double detect) {
    metrics.emplace_back("false_suspects", fp);
    metrics.emplace_back("detect_all_s", detect);
  };
  const double noisy_23 = seed == 23 ? 1 : 0;
  if (label.ends_with("-phi")) row(0, 120);
  if (label.ends_with("-dl30")) row(5, 40);
  if (label.ends_with("-dl90")) row(noisy_23, 100);
  if (label.ends_with("-dl240")) row(noisy_23, 250);
  if (label.starts_with("storm-")) {
    metrics.emplace_back("goodput_per_slot_hour",
                         label == "storm-bare" ? 10.0 : 16.0);
  }
  return metrics;
}

TEST(Contracts, GrayPhiOnTheFrontierAndQuarantinePays) {
  const Contract gray("gray");
  EXPECT_TRUE(gray.Gates(GrayPass).empty());
  // Every run reaches its node target; storm runs audit clean.
  EXPECT_TRUE(Names(gray.GatesWith(GrayPass, "j6-dl90", 11,
                                   [](Metrics& m) {
                                     Set(m, "reached_target", 0);
                                   }),
                    {"j6-dl90 seed 11", "reached_target"}));
  EXPECT_TRUE(Names(gray.GatesWith(GrayPass, "storm-bare", 47,
                                   [](Metrics& m) {
                                     Set(m, "audit_violations", 1);
                                   }),
                    {"storm-bare seed 47", "audit_violations"}));
  // phi raises no false suspicion.
  EXPECT_TRUE(Names(gray.GatesWith(GrayPass, "j45-phi", 23,
                                   [](Metrics& m) {
                                     Set(m, "false_suspects", 1);
                                   }),
                    {"j45-phi seed 23", "false_suspects"}));
  // No deadline point dominates phi: dl90 quiet on every seed does.
  const auto dominated = gray.GatesWith(GrayPass, "j6-dl90", 23, [](Metrics& m) {
    Set(m, "false_suspects", 0);
  });
  EXPECT_EQ(dominated.size(), 1u);
  EXPECT_TRUE(Names(dominated, {"j6-dl90 dominates j6-phi", "false_suspects",
                                "seed 23: 0", "detect_all_s"}));
  // phi dominates at least one deadline point: a phi slower than dl240 on
  // average dominates none.
  const auto dominates_none = gray.GatesWith(
      GrayPass, "j45-phi", 23, [](Metrics& m) { Set(m, "detect_all_s", 700); });
  EXPECT_EQ(dominates_none.size(), 1u);
  EXPECT_TRUE(Names(dominates_none, {"j45-phi dominates no deadline point",
                                     "detect_all_s", "seed 23: 700"}));
  // phi must declare the killed site (NaN: never declared)...
  const auto undetected = gray.Gates([](const std::string& l, std::uint64_t s) {
    Metrics m = GrayPass(l, s);
    if (l == "j45-phi") Set(m, "detect_all_s", std::nan(""));
    return m;
  });
  EXPECT_TRUE(Names(undetected, {"j45-phi", "never declared", "detect_all_s"}));
  // ...on every seed: one miss counts as never, not as a faster mean.
  const auto missed_once = gray.GatesWith(
      GrayPass, "j45-phi", 23,
      [](Metrics& m) { Set(m, "detect_all_s", std::nan("")); });
  EXPECT_TRUE(Names(missed_once, {"j45-phi", "never declared",
                                  "detect_all_s mean inf", "seed 23: nan"}));
  // A deadline point that never declared cannot dominate phi.
  EXPECT_TRUE(gray.GatesWith(GrayPass, "j6-dl240", 23, [](Metrics& m) {
                    Set(m, "false_suspects", 0);
                    Set(m, "detect_all_s", std::nan(""));
                  }).empty());
  // Quarantine beats the bare storm on mean goodput.
  const auto storm = gray.GatesWith(GrayPass, "storm-quarantine", 23,
                                    [](Metrics& m) {
                                      Set(m, "goodput_per_slot_hour", -2);
                                    });
  EXPECT_EQ(storm.size(), 1u);
  EXPECT_TRUE(Names(storm, {"storm-quarantine", "goodput_per_slot_hour",
                            "seed 23: -2", "storm-bare"}));
}

// --- the table renderer ----------------------------------------------------

/// `fake` swept over configs `labels` at seeds 1 and 2, with a plan whose
/// configs carry those labels.
struct FakeSweep {
  FakeSweep(const std::vector<std::string>& labels, const FakeRun& fake) {
    spec.seeds = {1, 2};
    spec.configs = labels.size();
    spec.config_labels = labels;
    for (const std::string& label : labels) {
      plan.configs.push_back({.label = label});
    }
    result = RunSweep(spec, [&](std::size_t config, std::uint64_t seed) {
      return fake(labels[config], seed);
    });
  }

  std::string Render() const {
    std::ostringstream os;
    RenderTable(plan, spec, result).Print(os);
    return os.str();
  }

  Plan plan;
  SweepSpec spec;
  SweepResult result;
};

TEST(RenderTable, OneRowPerConfigWithEveryStatistic) {
  FakeSweep fake({"a", "b", "c"},
                 [](const std::string& label, std::uint64_t seed) -> Metrics {
                   const double s = static_cast<double>(seed);
                   if (label == "a") return {{"x", 10 * s}, {"y", 0.001}};
                   if (label == "b") return {{"x", 10 + 20 * s}};
                   return {{"x", std::nan("")}, {"y", 0.002}};
                 });
  fake.plan.configs[0].name = "alpha";
  fake.plan.columns = {
      {.header = "x", .metric = "x"},
      {.header = "ci", .metric = "x", .stat = Stat::kCi95, .decimals = 1},
      {.header = "seeds", .metric = "x", .stat = Stat::kSeeds},
      {.header = "vs a", .metric = "x", .stat = Stat::kRatio, .of = "a",
       .decimals = 2, .unit = "x"},
      {.header = "vs z", .metric = "x", .stat = Stat::kRatio, .of = "z"},
      {.header = "y", .metric = "y", .scale = 1000, .unit = " ms"}};
  // a: x = 10, 20 (CI 1.96 x 7.07 / sqrt 2); b: x = 30, 50 and no y; c: no
  // finite x. There is no config z to divide by.
  EXPECT_EQ(fake.Render(),
            "| config | x  | ci     | seeds   | vs a  | vs z | y    |\n"
            "|--------|----|--------|---------|-------|------|------|\n"
            "| alpha  | 15 | +-9.8  | 10 / 20 | 1.00x | -    | 1 ms |\n"
            "| b      | 40 | +-19.6 | 30 / 50 | 2.67x | -    | -    |\n"
            "| c      | -  | -      | -       | -     | -    | 2 ms |\n");
}

TEST(RenderTable, OneConfigMeansOneRowPerSeed) {
  FakeSweep fake({"only"}, [](const std::string&, std::uint64_t seed) {
    return Metrics{{"x", 1.5 * static_cast<double>(seed)}};
  });
  fake.plan.columns = {
      {.header = "x", .metric = "x", .decimals = 1},
      {.header = "ci", .metric = "x", .stat = Stat::kCi95},
      {.header = "vs only", .metric = "x", .stat = Stat::kRatio,
       .of = "only"}};
  EXPECT_EQ(fake.Render(),
            "| seed | x   | ci | vs only |\n"
            "|------|-----|----|---------|\n"
            "| 1    | 1.5 | -  | -       |\n"
            "| 2    | 3.0 | -  | -       |\n");
}

TEST(RenderTable, PartialMeanShowsItsSeedCoverage) {
  FakeSweep fake({"a", "b"},
                 [](const std::string& label, std::uint64_t seed) -> Metrics {
                   const double s = static_cast<double>(seed);
                   if (label == "a") return {{"x", 10 * s}};
                   return {{"x", seed == 2 ? 0 : std::nan("")}};
                 });
  fake.plan.columns = {
      {.header = "x", .metric = "x"},
      {.header = "vs a", .metric = "x", .stat = Stat::kRatio, .of = "a",
       .decimals = 2, .unit = "x"}};
  // b measured x on seed 2 alone: its mean and ratio say so.
  EXPECT_EQ(fake.Render(),
            "| config | x       | vs a        |\n"
            "|--------|---------|-------------|\n"
            "| a      | 15      | 1.00x       |\n"
            "| b      | 0 (1/2) | 0.00x (1/2) |\n");
}

TEST(RenderTable, ColumnOfAnUnreportedMetricThrowsNamingTheColumn) {
  FakeSweep fake({"a", "b"}, [](const std::string&, std::uint64_t) {
    return Metrics{{"x", 1.0}};
  });
  fake.plan.columns = {{.header = "x", .metric = "x"},
                       {.header = "misspelt", .metric = "xx"}};
  try {
    fake.Render();
    FAIL() << "no throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("column \"misspelt\""),
              std::string::npos)
        << e.what();
  }
}

TEST(Fig4Crossover, InterpolatesBetweenThePointsAroundTheCluster) {
  const auto crossover =
      [](const std::vector<std::pair<std::string, double>>& responses) {
        std::vector<std::string> labels;
        for (const auto& [label, response] : responses) labels.push_back(label);
        const FakeSweep fake(labels, [&](const std::string& label,
                                         std::uint64_t) {
          const auto row = std::find_if(
              responses.begin(), responses.end(),
              [&](const auto& r) { return r.first == label; });
          return Metrics{{"response_s", row->second}};
        });
        return Fig4Crossover(fake.spec, fake.result);
      };
  // 150 s at 50 nodes and 50 s at 55 cross the 100 s cluster line halfway.
  EXPECT_EQ(crossover({{"cluster100", 100},
                       {"hog40", 200},
                       {"hog50", 150},
                       {"hog55", 50},
                       {"hog60", 120}}),
            52.5);
  // An unmeasured point is passed over: 200 s at 40, 50 s at 100.
  EXPECT_DOUBLE_EQ(*crossover({{"cluster100", 100},
                               {"hog40", 200},
                               {"hog50", std::nan("")},
                               {"hog100", 50}}),
                   80.0);
  EXPECT_EQ(crossover({{"cluster100", 100}, {"hog40", 200}, {"hog1101", 150}}),
            std::nullopt);
}

// --- EXPERIMENTS.md's rendered tables --------------------------------------

// Each block EXPERIMENTS.md renders from a committed baseline must equal the
// table `hogbench <name>` prints for that baseline, so a re-pinned baseline
// or a changed column fails here until the doc block is refreshed.
class DocTable : public testing::TestWithParam<const char*> {};

TEST_P(DocTable, MatchesItsCommittedBaseline) {
  const std::string name = GetParam();
  const std::string source = HOGSIM_SOURCE_DIR;
  const std::string expected =
      Contract(name).Rendered(
          LoadBenchJson(source + "/BENCH_" + name + ".json")) +
      "\n";
  std::ifstream in(source + "/EXPERIMENTS.md");
  ASSERT_TRUE(in);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  const std::string begin = "<!-- rendered from BENCH_" + name + ".json -->\n";
  const std::string end = "<!-- end of rendered table -->";
  const std::size_t start = doc.find(begin);
  const std::string block =
      start == std::string::npos
          ? "(no block)"
          : doc.substr(start + begin.size(),
                       doc.find(end, start) - start - begin.size());
  EXPECT_EQ(block, expected)
      << "EXPERIMENTS.md's " << name << " table differs from the rendering "
      << "of BENCH_" << name << ".json; replace its block with:\n"
      << begin << expected << end;
}

INSTANTIATE_TEST_SUITE_P(
    Experiments, DocTable,
    testing::Values("table1", "table2", "table3", "fig4", "fig5_table4",
                    "exp_zombie_datanodes", "exp_disk_overflow",
                    "ablation_delay_scheduling", "ablation_heartbeat",
                    "ablation_multicopy", "ablation_replication",
                    "ablation_security", "ablation_site_awareness", "sched",
                    "repl", "topo", "gray", "scale"),
    [](const testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace hogsim::exp
