// Ablation for §III.B.1 — site awareness. HOG extends rack awareness to
// sites so that replicas spread across administrative failure domains.
// This bench kills an entire site mid-workload and compares site-aware
// placement against flat (topology-blind) placement at equal replication.
// The two placements are the sweep's configs; results aggregate across
// seeds.
#include <cstdio>
#include <iostream>

#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

namespace {

constexpr int kReplication = 4;

exp::Metrics Run(bool site_aware, std::uint64_t seed,
                 const exp::BenchOptions& opts,
                 const fault::Scenario& scenario) {
  hog::HogConfig config;
  config.site_awareness = site_aware;
  config.replication = kReplication;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 1e9;  // isolate the site-outage effect
    site.burst_interval_s = 0;
  }
  exp::HogRun run(seed, config, exp::HogRunOptionsFrom(opts));
  if (!run.SpinUp(60)) {
    return {{"response_s", 0.0},
            {"failed_jobs", 0.0},
            {"missing_blocks", 0.0},
            {"data_local_maps", 0.0},
            {"remote_maps", 0.0}};
  }

  run.Prepare(exp::FacebookSchedule(seed, opts.fast));
  run.Submit(&scenario);
  // Whole-site outage ("a core network component failure, or a large
  // power outage") 5 minutes into the workload.
  hog::HogCluster& cluster = run.cluster();
  cluster.sim().ScheduleAfter(5 * kMinute, [&cluster] {
    cluster.grid().PreemptSiteFraction(0, 1.0);
  });
  const auto result = run.Run();
  run.Finish();
  long long data_local = 0, remote = 0;
  for (std::size_t j = 0; j < cluster.jobtracker().job_count(); ++j) {
    const auto& job = cluster.jobtracker().job(static_cast<mr::JobId>(j));
    data_local += job.data_local_maps;
    remote += job.remote_maps;
  }
  return {{"response_s", result.response_time_s},
          {"failed_jobs", static_cast<double>(result.failed)},
          {"missing_blocks",
           static_cast<double>(cluster.namenode().missing_blocks())},
          {"data_local_maps", static_cast<double>(data_local)},
          {"remote_maps", static_cast<double>(remote)}};
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  if (opts.fast) opts.seeds.resize(1);
  const fault::Scenario scenario = exp::LoadBenchScenario(opts);

  std::printf("Ablation: site awareness under a whole-site outage "
              "(§III.B.1; %zu seed(s))\n", opts.seeds.size());
  std::printf("(replication %d to make placement quality matter; site 0 "
              "dies at t+5 min)\n\n", kReplication);
  exp::SweepSpec spec;
  spec.name = "ablation_site_awareness";
  spec.configs = 2;
  spec.config_labels = {"site_aware", "flat"};
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec, [&opts, &scenario](std::size_t config, std::uint64_t seed) {
        return Run(config == 0, seed, opts, scenario);
      });

  const char* names[] = {"hog-site-aware", "flat (topology-blind)"};
  TextTable table({"placement", "response (s)", "failed jobs",
                   "missing blocks", "node-local maps", "remote maps"});
  for (std::size_t c = 0; c < spec.configs; ++c) {
    table.AddRow({names[c], FormatDouble(sweep.Mean(c, "response_s"), 0),
                  FormatDouble(sweep.Mean(c, "failed_jobs"), 1),
                  FormatDouble(sweep.Mean(c, "missing_blocks"), 1),
                  FormatDouble(sweep.Mean(c, "data_local_maps"), 0),
                  FormatDouble(sweep.Mean(c, "remote_maps"), 0)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: site-aware placement guarantees replicas outside "
      "the failed site, so no blocks go missing; blind placement can lose "
      "all copies of a block to one site (paper: sites are the natural "
      "failure domain of the grid).\n");
  const auto missing = [&](std::size_t c) {
    return sweep.Mean(c, "missing_blocks");
  };
  std::printf("Site awareness avoids data loss at least as well as flat: "
              "%s\n", missing(0) <= missing(1) ? "YES" : "NO");
  return 0;
}
