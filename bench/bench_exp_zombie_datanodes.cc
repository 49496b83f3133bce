// Reproduces §IV.D.1 — "Abandoned Data Nodes": double-forked daemons that
// escape the site's preemption kill keep heartbeating with a deleted
// working directory. They accept tasks that fail immediately, hold phantom
// replicas the namenode trusts, and cost clients read timeouts. The
// paper's fixes: a periodic working-directory probe (daemons shut
// themselves down) and launching daemons inside the wrapper's process tree
// (so the site's kill reaches them).
//
// Design: identical runs with an identical injected preemption schedule
// (six waves, each evicting 20% of a site), differing only in what a
// preemption does to the daemons:
//   1. first-iteration HOG: daemons escape; no probe (the bug)
//   2. probe fix:           daemons escape; 3-minute probe reaps them
//   3. process-tree fix:    the kill takes the daemons down with the job
// Each variant is a sweep config; results aggregate across seeds.
#include <cstdio>
#include <iostream>

#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

namespace {

struct Variant {
  const char* name;
  double zombie_probability;
  SimDuration probe_interval;
};

constexpr Variant kVariants[] = {
    {"double-fork, no probe (bug)", 1.0, 0},
    {"double-fork + 3 min probe (fix 1)", 1.0, 3 * kMinute},
    {"single process tree (fix 2)", 0.0, 3 * kMinute},
};

exp::Metrics Run(const Variant& variant, std::uint64_t seed,
                 const exp::BenchOptions& opts,
                 const fault::Scenario& scenario) {
  hog::HogConfig config;
  config.grid.zombie_probability = variant.zombie_probability;
  config.disk_check_interval = variant.probe_interval;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 1e9;  // all preemption comes from the injections
    site.burst_interval_s = 0;
  }
  exp::HogRun run(seed, config, exp::HogRunOptionsFrom(opts));
  if (!run.SpinUp(55)) {
    return {{"response_s", 0.0},
            {"failed_jobs", 0.0},
            {"attempts", 0.0},
            {"zombie_events", 0.0},
            {"zombies_left", 0.0}};
  }

  run.Prepare(exp::FacebookSchedule(seed, opts.fast));
  run.Submit(&scenario);
  // The injected preemption schedule: identical across variants. Gentle
  // waves (20% of one site each) so the damage signal is the daemons'
  // fate, not raw capacity loss.
  hog::HogCluster& cluster = run.cluster();
  for (int wave = 0; wave < 6; ++wave) {
    cluster.sim().ScheduleAfter((4 + 6 * wave) * kMinute,
                                [&cluster, wave] {
                                  cluster.grid().PreemptSiteFraction(
                                      static_cast<std::size_t>(wave % 5),
                                      0.2);
                                });
  }
  const auto result = run.Run();
  run.Finish();
  return {{"response_s", result.response_time_s},
          {"failed_jobs", static_cast<double>(result.failed)},
          {"attempts",
           static_cast<double>(cluster.jobtracker().attempts_launched())},
          {"zombie_events",
           static_cast<double>(cluster.grid().zombie_events())},
          {"zombies_left",
           static_cast<double>(cluster.grid().zombie_nodes())}};
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  if (opts.fast) opts.seeds.resize(1);
  const fault::Scenario scenario = exp::LoadBenchScenario(opts);

  std::printf("§IV.D.1: abandoned (zombie) datanodes\n");
  std::printf("(identical 6-wave preemption injection; only the daemons' "
              "fate differs; %zu seed(s))\n\n", opts.seeds.size());
  exp::SweepSpec spec;
  spec.name = "exp_zombie_datanodes";
  spec.configs = std::size(kVariants);
  spec.config_labels = {"bug_no_probe", "probe_3min", "process_tree"};
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec, [&opts, &scenario](std::size_t config, std::uint64_t seed) {
        return Run(kVariants[config], seed, opts, scenario);
      });

  TextTable table({"variant", "response (s)", "failed jobs",
                   "attempts", "zombie events", "zombies at end"});
  for (std::size_t c = 0; c < spec.configs; ++c) {
    table.AddRow({kVariants[c].name,
                  FormatDouble(sweep.Mean(c, "response_s"), 0),
                  FormatDouble(sweep.Mean(c, "failed_jobs"), 1),
                  FormatDouble(sweep.Mean(c, "attempts"), 0),
                  FormatDouble(sweep.Mean(c, "zombie_events"), 1),
                  FormatDouble(sweep.Mean(c, "zombies_left"), 1)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: under the bug EVERY zombie haunts the pool to the "
      "end — tasks keep landing on them and failing instantly, so jobs "
      "fail in droves (a failed job also ends early, which is why the "
      "buggy run's wall-clock 'response' can look short). The probe reaps "
      "zombies within ~3 minutes, cutting the failures; the process-tree "
      "fix never creates zombies and is the only variant that completes "
      "the whole workload.\n");
  const auto failed = [&](std::size_t c) {
    return sweep.Mean(c, "failed_jobs");
  };
  const auto left = [&](std::size_t c) {
    return sweep.Mean(c, "zombies_left");
  };
  std::printf("Failed jobs strictly improve bug -> probe -> process-tree: "
              "%s; zombies drained by the fixes: %s\n",
              (failed(0) > failed(1) && failed(1) > failed(2)) ? "YES" : "NO",
              (left(0) >= sweep.Mean(0, "zombie_events") && left(1) <= 2 &&
               left(2) == 0)
                  ? "YES"
                  : "NO");
  return 0;
}
