// The paper's evaluation (§IV) as hogbench experiments: Tables I–IV,
// Figs. 4–5 and the two §IV.D operational experiences.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/dedicated_cluster.h"
#include "src/exp/experiments.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/workload/facebook.h"

namespace hogsim::exp {

namespace {

/// A paper table printed verbatim before the sweep, under its title.
std::string PaperTable(const char* title, const TextTable& table) {
  std::ostringstream os;
  os << title << "\n\n";
  table.Print(os);
  return os.str();
}

// The paper's x-axis sampling points for Fig. 4.
constexpr int kFig4Nodes[] = {40, 50,  55,  60,  99,  100,
                              132, 160, 171, 180, 974, 1101};

// ---------------------------------------------------------------------------
// Table I — "Facebook production workload": the nine job-size bins with
// their Facebook share and the benchmark's map/job counts — and a sweep of
// generated schedules across seeds verifying each realizes the benchmark
// mix exactly.

Plan Table1Plan(const Setup&) {
  Plan plan;
  plan.configs.push_back(
      {.label = "facebook_mix", .run = [](std::uint64_t seed) -> Metrics {
         Rng rng(seed);
         const auto schedule = workload::GenerateFacebookSchedule(rng);
         std::map<int, int> by_bin;
         for (const auto& job : schedule) by_bin[job.bin]++;
         Metrics metrics = {{"jobs", static_cast<double>(schedule.size())}};
         for (int b = 1; b <= 6; ++b) {
           metrics.emplace_back("bin" + std::to_string(b),
                                static_cast<double>(by_bin[b]));
         }
         metrics.emplace_back("schedule_len_s",
                              ToSeconds(schedule.back().submit_time));
         return metrics;
       }});
  TextTable paper({"Bin", "#Maps at Facebook", "%Jobs at Facebook",
                   "#Maps in Benchmark", "# of jobs in Benchmark"});
  for (const auto& bin : workload::FacebookTable1()) {
    paper.AddRow({std::to_string(bin.bin), bin.maps_label,
                  FormatDouble(bin.fraction * 100, 0) + "%",
                  std::to_string(bin.maps), std::to_string(bin.jobs)});
  }
  plan.preface = PaperTable(
      "Table I: Facebook production workload (paper, verbatim)", paper);
  plan.columns = {{.header = "jobs", .metric = "jobs"}};
  for (int b = 1; b <= 6; ++b) {
    plan.columns.push_back({.header = "bin " + std::to_string(b),
                            .metric = "bin" + std::to_string(b)});
  }
  plan.columns.push_back(
      {.header = "schedule (s)", .metric = "schedule_len_s"});
  // The benchmark uses bins 1-6 (~89% of Facebook's jobs): every seed must
  // realize exactly that mix.
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
    double covered = 0;
    for (const auto& bin : workload::FacebookTable1()) {
      if (bin.bin <= 6) covered += bin.fraction;
    }
    const bool exact = std::all_of(
        sweep.runs.begin(), sweep.runs.end(),
        [](const RunRecord& run) { return run.Metric("jobs") == 88; });
    std::printf(
        "\nBins 1-6 cover %.0f%% of Facebook's jobs (paper: ~89%%); mean "
        "inter-arrival 14 s (exponential) => ~21 min schedule.\n",
        covered * 100);
    std::printf("Mix exact for all %zu seeds: %s (88 jobs each)\n",
                spec.seeds.size(), YesNo(exact));
  };
  return plan;
}

// ---------------------------------------------------------------------------
// Table II — "Truncated workload for this paper": map and (paper-added)
// reduce task counts for bins 1-6, with the non-decreasing reduce rule —
// and the generated schedules' aggregate task totals across seeds (they
// must be seed-invariant: the bin mix is exact).

Plan Table2Plan(const Setup&) {
  Plan plan;
  plan.configs.push_back(
      {.label = "schedule_totals", .run = [](std::uint64_t seed) -> Metrics {
         Rng rng(seed);
         const auto schedule = workload::GenerateFacebookSchedule(rng);
         long long maps = 0, reduces = 0, input = 0;
         for (const auto& job : schedule) {
           maps += job.maps;
           reduces += job.reduces;
           input += static_cast<long long>(job.maps) * hdfs::kBlockSize;
         }
         return {{"map_tasks", static_cast<double>(maps)},
                 {"reduce_tasks", static_cast<double>(reduces)},
                 {"input_gib", static_cast<double>(input) / kGiB}};
       }});
  TextTable paper({"Bin", "Map Tasks", "Reduce Tasks"});
  for (const auto& bin : workload::FacebookTable2()) {
    paper.AddRow({std::to_string(bin.bin), std::to_string(bin.map_tasks),
                  std::to_string(bin.reduce_tasks)});
  }
  plan.preface =
      PaperTable("Table II: truncated workload (paper, verbatim)", paper);
  plan.columns = {{.header = "map tasks", .metric = "map_tasks"},
                  {.header = "reduce tasks", .metric = "reduce_tasks"},
                  {.header = "input (GiB)", .metric = "input_gib",
                   .decimals = 1}};
  plan.notes = [](const SweepSpec&, const SweepResult& sweep) {
    const RunRecord& first = sweep.runs.front();
    const bool invariant = std::all_of(
        sweep.runs.begin(), sweep.runs.end(), [&](const RunRecord& run) {
          return run.Metric("map_tasks") == first.Metric("map_tasks") &&
                 run.Metric("reduce_tasks") == first.Metric("reduce_tasks");
        });
    std::printf("\nTotals seed-invariant (64 MiB of input per map): %s\n",
                YesNo(invariant));
  };
  return plan;
}

// ---------------------------------------------------------------------------
// Table III — the dedicated MapReduce cluster — and the baseline it
// anchors: the Facebook workload's response time on that cluster (the
// dashed line of Fig. 4), as a multi-seed sweep with CI.

Metrics RunCluster(std::uint64_t seed) {
  const auto result = RunClusterWorkload(seed);
  return {{"response_s", result.response_time_s},
          {"jobs_succeeded", static_cast<double>(result.succeeded)},
          {"jobs_failed", static_cast<double>(result.failed)}};
}

Plan Table3Plan(const Setup&) {
  Plan plan;
  plan.configs.push_back({.label = "cluster100", .run = RunCluster});
  TextTable paper({"Nodes", "Quantity", "Configuration"});
  paper.AddRow({"Master node", "1", "2x 2.2GHz CPUs, 1 Gbps Ethernet"});
  paper.AddRow({"Slave nodes-I", "20",
                "2x dual-core 2.2GHz, 1 Gbps, 4 map + 1 reduce slots"});
  paper.AddRow({"Slave nodes-II", "10",
                "2x single-core 2.2GHz, 1 Gbps, 2 map + 1 reduce slots"});
  baseline::DedicatedCluster probe(1);
  plan.preface =
      PaperTable("Table III: dedicated MapReduce cluster configuration",
                 paper) +
      "\nInstantiated cluster: " + std::to_string(probe.slave_count()) +
      " slaves, " + std::to_string(probe.total_map_slots()) +
      " map slots, " + std::to_string(probe.total_reduce_slots()) +
      " reduce slots (paper: 100 cores)\n";
  plan.columns = {{.header = "response (s)", .metric = "response_s"},
                  {.header = "jobs ok", .metric = "jobs_succeeded"},
                  {.header = "jobs failed", .metric = "jobs_failed"}};
  return plan;
}

// ---------------------------------------------------------------------------
// Figure 4 — "HOG vs. Cluster Equivalent Performance": the Facebook
// workload's response time on HOG deployments of the paper's sampled sizes
// (40..1101 nodes, 3 runs each) against the dedicated 100-core cluster's
// constant baseline. The paper's headline: HOG needs [99,100] nodes for
// equivalent performance. The dedicated cluster is config "cluster100",
// the HOG sampling points "hog<nodes>"; --fast keeps 55, 100 and 180.

Plan Fig4Plan(const Setup& setup) {
  Plan plan;
  plan.configs.push_back({.label = "cluster100", .run = [](std::uint64_t seed) {
                            const auto result = RunClusterWorkload(seed);
                            return Metrics{{"response_s", result.response_time_s},
                                           {"preemptions", 0.0},
                                           {"reached", 1.0}};
                          }});
  for (const int nodes : kFig4Nodes) {
    plan.configs.push_back(
        {.label = "hog" + std::to_string(nodes),
         .fast = nodes == 55 || nodes == 100 || nodes == 180,
         .run = [&setup, nodes](std::uint64_t seed) -> Metrics {
           const auto result =
               RunHogWorkload(nodes, seed, {}, &setup.scenario,
                              setup.opts.hog);
           // An unreached deployment target leaves the response
           // unmeasurable; NaN serializes as null and is excluded from the
           // summaries.
           const double response = result.reached_target
                                       ? result.workload.response_time_s
                                       : std::nan("");
           return {{"response_s", response},
                   {"preemptions", static_cast<double>(result.preemptions)},
                   {"reached", result.reached_target ? 1.0 : 0.0}};
         }});
  }
  plan.columns = {
      {.header = "runs (s)", .metric = "response_s", .stat = Stat::kSeeds},
      {.header = "mean (s)", .metric = "response_s"},
      {.header = "ci95", .metric = "response_s", .stat = Stat::kCi95},
      {.header = "vs cluster", .metric = "response_s", .stat = Stat::kRatio,
       .of = "cluster100", .decimals = 2, .unit = "x"},
      {.header = "preempt/run", .metric = "preemptions"}};
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
    if (const std::optional<double> nodes = Fig4Crossover(spec, sweep)) {
      std::printf("\nEquivalent performance at ~%.0f HOG nodes "
                  "(paper: [99,100]).\n", *nodes);
    } else {
      std::printf("\nNo crossover detected in the sampled range.\n");
    }
    std::printf("Expected shape: response decreases with nodes but not "
                "monotonically (churn), with diminishing returns toward 1101 "
                "nodes (§IV.C).\n");
  };
  return plan;
}

// ---------------------------------------------------------------------------
// Figure 5 — "HOG Node Fluctuation" — and Table IV — "Area beneath curves"
// — are one protocol read two ways: the jobtracker-reported live-node
// count over time for three 55-node executions of the Facebook workload,
// two on comparatively stable grids (a, b) and one on an unstable grid
// (c), and the integral of each curve over its execution window next to
// its response time. The paper's observation: more node fluctuation goes
// with longer response.
//
// One config ("hog55"); each seed is one of the paper's executions, and
// the LAST seed runs on the unstable grid. --fast keeps one stable run and
// the unstable one.

/// The part of a Fig. 5 run its trace printout needs beyond the metrics.
struct Fig5Trace {
  std::uint64_t preemptions = 0;
  std::vector<std::pair<double, double>> samples;  // (t since start, nodes)
};

Plan Fig5Table4Plan(const Setup& setup) {
  const std::vector<std::uint64_t>& seeds = setup.opts.seeds;
  const auto traces = std::make_shared<std::vector<Fig5Trace>>(seeds.size());
  Plan plan;
  plan.configs.push_back(
      {.label = "hog55", .run = [&setup, traces](std::uint64_t seed) -> Metrics {
         const std::vector<std::uint64_t>& seeds = setup.opts.seeds;
         const auto idx = static_cast<std::size_t>(
             std::find(seeds.begin(), seeds.end(), seed) - seeds.begin());
         const bool unstable = idx + 1 == seeds.size();
         const HogRunResult run = RunHogWorkload(
             55, seed, unstable ? UnstableGrid() : hog::HogConfig{},
             &setup.scenario, setup.opts.hog);
         // Downsampled trace: reported nodes every ~5% of the run.
         Fig5Trace& trace = (*traces)[idx];
         trace.preemptions = run.preemptions;
         const SimDuration step = std::max<SimDuration>(
             kMinute, (run.window_end - run.window_start) / 20);
         for (const auto& [t, v] : run.reported_nodes.Sample(
                  run.window_start, run.window_end, step)) {
           trace.samples.emplace_back(ToSeconds(t - run.window_start), v);
         }
         return {{"response_s", run.workload.response_time_s},
                 {"area_node_s", run.area_beneath_curve},
                 {"mean_nodes", run.mean_reported_nodes}};
       }});
  TextTable paper({"Figure No.", "Response Time (s)", "Area (node-s)"});
  paper.AddRow({"5a", "4396", "181020"});
  paper.AddRow({"5b", "3896", "172360"});
  paper.AddRow({"5c", "6235", "252455"});
  plan.preface = PaperTable(
      "Table IV (paper, verbatim): area beneath the Fig. 5 curves", paper);
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "area (node-s)", .metric = "area_node_s"},
      {.header = "mean nodes", .metric = "mean_nodes", .decimals = 1}};
  plan.notes = [traces](const SweepSpec&, const SweepResult& sweep) {
    // One config, so the runs are in seed order and the last is unstable.
    const std::vector<RunRecord>& runs = sweep.runs;
    const auto unstable_largest = [&runs](const char* metric) {
      return std::all_of(runs.begin(), runs.end() - 1,
                         [&](const RunRecord& run) {
                           return runs.back().Metric(metric) >
                                  run.Metric(metric);
                         });
    };
    std::printf("\nShape check: unstable run (last) has the longest "
                "response: %s\n",
                unstable_largest("response_s") ? "YES (matches paper)" : "NO");
    std::printf("Area check: unstable run (last) has the largest area "
                "beneath its curve: %s\n",
                unstable_largest("area_node_s") ? "YES (matches paper)"
                                                : "NO (paper: 5c largest)");

    for (std::size_t idx = 0; idx < runs.size(); ++idx) {
      const bool unstable = idx + 1 == runs.size();
      const Fig5Trace& trace = (*traces)[idx];
      std::printf("\nFig. 5%c (seed %llu, %s): %llu preemptions\n",
                  static_cast<char>('a' + idx),
                  static_cast<unsigned long long>(runs[idx].seed),
                  unstable ? "55 unstable nodes" : "55 stable nodes",
                  static_cast<unsigned long long>(trace.preemptions));
      std::printf("  t(s)    nodes  |bar (each # = 2 nodes)\n");
      for (const auto& [t, v] : trace.samples) {
        std::printf("  %6.0f  %5.0f  |%s\n", t, v,
                    std::string(static_cast<std::size_t>(v / 2), '#').c_str());
      }
    }
    std::printf("\nExpected shape (paper): the unstable run (last) shows "
                "larger node swings, the longest response time and the "
                "largest area-beneath-curve deviation per second; reported "
                "counts briefly exceed 55 after preemptions.\n");
  };
  return plan;
}

// ---------------------------------------------------------------------------
// §IV.D.1 — "Abandoned Data Nodes": double-forked daemons that escape the
// site's preemption kill keep heartbeating with a deleted working
// directory. They accept tasks that fail immediately, hold phantom replicas
// the namenode trusts, and cost clients read timeouts. The paper's fixes: a
// periodic working-directory probe (daemons shut themselves down) and
// launching daemons inside the wrapper's process tree (so the site's kill
// reaches them).
//
// Identical runs with an identical injected preemption schedule (six
// waves, each evicting 20% of a site), differing only in what a
// preemption does to the daemons:
//   1. first-iteration HOG: daemons escape; no probe (the bug)
//   2. probe fix:           daemons escape; 3-minute probe reaps them
//   3. process-tree fix:    the kill takes the daemons down with the job

struct ZombieVariant {
  const char* label;
  const char* name;
  double zombie_probability;
  SimDuration probe_interval;
};

constexpr ZombieVariant kZombieVariants[] = {
    {"bug_no_probe", "double-fork, no probe (bug)", 1.0, 0},
    {"probe_3min", "double-fork + 3 min probe (fix 1)", 1.0, 3 * kMinute},
    {"process_tree", "single process tree (fix 2)", 0.0, 3 * kMinute},
};

Metrics RunZombie(const ZombieVariant& variant, std::uint64_t seed,
                  const Setup& setup) {
  hog::HogConfig config;
  config.grid.zombie_probability = variant.zombie_probability;
  config.hdfs.disk_check_interval = config.mr.disk_check_interval =
      variant.probe_interval;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 1e9;  // all preemption comes from the injections
    site.burst_interval_s = 0;
  }
  HogRun run(seed, config, setup.opts.hog);
  run.RequireSpinUp(55);
  run.Prepare(FacebookSchedule(seed, setup.opts.fast));
  run.Submit(&setup.scenario);
  // The injected preemption schedule: identical across variants. Gentle
  // waves (20% of one site each) so the damage signal is the daemons'
  // fate, not raw capacity loss.
  hog::HogCluster& cluster = run.cluster();
  for (int wave = 0; wave < 6; ++wave) {
    cluster.sim().ScheduleAfter((4 + 6 * wave) * kMinute, [&cluster, wave] {
      cluster.grid().PreemptSiteFraction(static_cast<std::size_t>(wave % 5),
                                         0.2);
    });
  }
  const auto result = run.Run();
  run.Finish();
  return {{"response_s", result.response_time_s},
          {"jobs_failed", static_cast<double>(result.failed)},
          {"attempts_launched",
           static_cast<double>(cluster.jobtracker().attempts_launched())},
          {"zombie_events",
           static_cast<double>(cluster.grid().zombie_events())},
          {"zombies_left",
           static_cast<double>(cluster.grid().zombie_nodes())}};
}

Plan ZombiePlan(const Setup& setup) {
  Plan plan;
  for (const ZombieVariant& variant : kZombieVariants) {
    plan.configs.push_back(
        {.label = variant.label,
         .name = variant.name,
         .run = [&setup, &variant](std::uint64_t seed) {
           return RunZombie(variant, seed, setup);
         }});
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "failed jobs", .metric = "jobs_failed", .decimals = 1},
      {.header = "attempts", .metric = "attempts_launched"},
      {.header = "zombie events", .metric = "zombie_events", .decimals = 1},
      {.header = "zombies at end", .metric = "zombies_left", .decimals = 1}};
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
    std::printf(
        "\nExpected shape: under the bug EVERY zombie haunts the pool to the "
        "end — tasks keep landing on them and failing instantly, so jobs "
        "fail in droves (a failed job also ends early, which is why the "
        "buggy run's wall-clock 'response' can look short). The probe reaps "
        "zombies within ~3 minutes, cutting the failures; the process-tree "
        "fix never creates zombies and is the only variant that completes "
        "the whole workload.\n");
    const auto failed = [&](const char* label) {
      return ConfigMean(spec, sweep, label, "jobs_failed");
    };
    const auto left = [&](const char* label) {
      return ConfigMean(spec, sweep, label, "zombies_left");
    };
    std::printf(
        "Failed jobs strictly improve bug -> probe -> process-tree: %s; "
        "zombies drained by the fixes: %s\n",
        YesNo(failed("bug_no_probe") > failed("probe_3min") &&
              failed("probe_3min") > failed("process_tree")),
        YesNo(left("bug_no_probe") >=
                  ConfigMean(spec, sweep, "bug_no_probe", "zombie_events") &&
              left("probe_3min") <= 2 && left("process_tree") == 0));
  };
  return plan;
}

// ---------------------------------------------------------------------------
// §IV.D.2 — "Disk Overflow": replication factor 10 plus slow WAN reduces
// make intermediate map output pile up on worker disks (Hadoop deletes it
// only when the whole job finishes), until map attempts fail with
// out-of-disk errors reported to the jobtracker. Small scratch disks make
// the effect visible at bench scale; the comparison shows the same
// workload on roomy disks stays clean.

struct DiskCase {
  const char* label;
  const char* name;
  Bytes disk;
};

constexpr DiskCase kDiskCases[] = {
    {"disk8gib", "tight scratch disks (8 GiB)", 8 * kGiB},
    {"disk100gib", "roomy scratch disks (100 GiB)", 100 * kGiB},
};

Metrics RunDiskOverflow(const DiskCase& c, std::uint64_t seed,
                        const Setup& setup) {
  hog::HogConfig config;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_disk = c.disk;
    site.node_mtbf_s = 1e9;  // isolate the disk effect from churn
    site.burst_interval_s = 0;
  }
  HogRun run(seed, config, setup.opts.hog);
  run.RequireSpinUp(40);

  // Keep input volume modest so the *intermediate* data is what overflows.
  run.Prepare(FacebookSchedule(seed, setup.opts.fast, 5));
  run.Submit(&setup.scenario);

  // Track peak disk utilization across workers while running.
  hog::HogCluster& cluster = run.cluster();
  double peak_disk_util = 0;
  while (!run.runner().Done() && cluster.sim().now() < kRunDeadline) {
    cluster.sim().RunUntil(cluster.sim().now() + 30 * kSecond);
    for (auto id : cluster.grid().RunningNodeIds()) {
      const auto& disk = cluster.grid().node(id)->disk();
      peak_disk_util =
          std::max(peak_disk_util, static_cast<double>(disk.used()) /
                                       static_cast<double>(disk.capacity()));
    }
  }
  // The sampling loop above ran the workload; a zero-length Run phase
  // closes it.
  const auto result = run.Run(0);
  run.Finish();
  return {{"response_s", result.response_time_s},
          {"jobs_succeeded", static_cast<double>(result.succeeded)},
          {"jobs_failed", static_cast<double>(result.failed)},
          {"attempts_launched",
           static_cast<double>(cluster.jobtracker().attempts_launched())},
          {"peak_disk_util", peak_disk_util}};
}

Plan DiskOverflowPlan(const Setup& setup) {
  Plan plan;
  for (const DiskCase& c : kDiskCases) {
    plan.configs.push_back({.label = c.label, .name = c.name,
                            .run = [&setup, &c](std::uint64_t seed) {
                              return RunDiskOverflow(c, seed, setup);
                            }});
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "jobs ok", .metric = "jobs_succeeded", .decimals = 1},
      {.header = "jobs failed", .metric = "jobs_failed", .decimals = 1},
      {.header = "attempts", .metric = "attempts_launched"},
      {.header = "peak disk util", .metric = "peak_disk_util", .decimals = 1,
       .scale = 100, .unit = "%"}};
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
    std::printf(
        "\nExpected shape: tight disks run at ~100%% utilization and report "
        "out-of-disk task failures (extra attempts, possibly failed jobs), "
        "exactly the worker-out-of-disk errors the paper saw; roomy disks "
        "stay clean.\n");
    const auto tight = [&](const char* metric) {
      return ConfigMean(spec, sweep, "disk8gib", metric);
    };
    const auto roomy = [&](const char* metric) {
      return ConfigMean(spec, sweep, "disk100gib", metric);
    };
    std::printf("Overflow visible on tight disks: %s\n",
                YesNo(tight("peak_disk_util") > 0.97 &&
                      (tight("jobs_failed") > roomy("jobs_failed") ||
                       tight("attempts_launched") >
                           roomy("attempts_launched"))));
  };
  return plan;
}

}  // namespace

std::optional<double> Fig4Crossover(const SweepSpec& spec,
                                    const SweepResult& sweep) {
  const double cluster = ConfigMean(spec, sweep, "cluster100", "response_s");
  double prev_nodes = 0, prev_mean = 0;  // no point above the cluster yet
  for (const int nodes : kFig4Nodes) {
    const std::size_t config = ConfigIndex(spec, "hog" + std::to_string(nodes));
    if (config == spec.configs) continue;
    const RunningStats& response = sweep.Summary(config, "response_s").stats;
    if (response.count() == 0) continue;
    if (prev_mean > cluster && response.mean() <= cluster) {
      return prev_nodes + (prev_mean - cluster) /
                              (prev_mean - response.mean()) *
                              (nodes - prev_nodes);
    }
    prev_nodes = nodes;
    prev_mean = response.mean();
  }
  return std::nullopt;
}

extern const Experiment kTable1 = {
    .name = "table1",
    .title = "Table I: the Facebook workload's bins, and each seed's mix",
    .takes_scenario = false,
    .plan = Table1Plan,
};

extern const Experiment kTable2 = {
    .name = "table2",
    .title = "Table II: the truncated workload's task totals",
    .takes_scenario = false,
    .plan = Table2Plan,
};

extern const Experiment kTable3 = {
    .name = "table3",
    .title = "Table III: the dedicated cluster and its response baseline",
    .fast_seeds = FastSeeds::kFirst,
    .takes_scenario = false,
    .plan = Table3Plan,
};

extern const Experiment kFig4 = {
    .name = "fig4",
    .title = "Fig. 4: HOG vs. cluster equivalent performance",
    .fast_seeds = FastSeeds::kFirst,
    .plan = Fig4Plan,
};

extern const Experiment kFig5Table4 = {
    .name = "fig5_table4",
    .title = "Fig. 5 and Table IV: node fluctuation and the area beneath it",
    .fast_seeds = FastSeeds::kFirstAndLast,
    .plan = Fig5Table4Plan,
};

extern const Experiment kExpZombieDatanodes = {
    .name = "exp_zombie_datanodes",
    .title = "§IV.D.1: abandoned (zombie) datanodes and the two fixes",
    .fast_seeds = FastSeeds::kFirst,
    .plan = ZombiePlan,
};

extern const Experiment kExpDiskOverflow = {
    .name = "exp_disk_overflow",
    .title = "§IV.D.2: disk overflow from retained intermediate data",
    .fast_seeds = FastSeeds::kFirst,
    .plan = DiskOverflowPlan,
};

}  // namespace hogsim::exp
