// Ablation for §III.B.1 — replication factor under correlated preemption.
// The paper raises HDFS replication from 3 to 10 because simultaneous
// preemptions routinely outrun re-replication. This bench sweeps the
// replication factor under bursty preemption and reports data
// availability and workload response. Each factor is a config; results
// aggregate across seeds.
#include <cstdio>
#include <iostream>

#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

namespace {

constexpr int kFactors[] = {2, 3, 10};

exp::Metrics Run(int replication, std::uint64_t seed,
                 const exp::BenchOptions& opts,
                 const fault::Scenario& scenario) {
  hog::HogConfig config;
  config.replication = replication;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 5400.0;
    site.burst_interval_s = 900.0;  // simultaneous preemptions are common
    site.burst_fraction = 0.15;
  }
  exp::HogRun run(seed, config, exp::HogRunOptionsFrom(opts));
  if (!run.SpinUp(60)) {
    return {{"response_s", 0.0},
            {"failed_jobs", 0.0},
            {"missing_blocks", 0.0},
            {"replications", 0.0},
            {"replication_gib", 0.0}};
  }
  run.Prepare(exp::FacebookSchedule(seed, opts.fast));
  run.Submit(&scenario);
  const auto result = run.Run();
  run.Finish();
  const hdfs::Namenode& nn = run.cluster().namenode();
  return {{"response_s", result.response_time_s},
          {"failed_jobs", static_cast<double>(result.failed)},
          {"missing_blocks", static_cast<double>(nn.missing_blocks())},
          {"replications", static_cast<double>(nn.replications_completed())},
          {"replication_gib", static_cast<double>(nn.replication_bytes()) /
                                  static_cast<double>(kGiB)}};
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  if (opts.fast) opts.seeds.resize(1);
  const fault::Scenario scenario = exp::LoadBenchScenario(opts);

  std::printf("Ablation: HDFS replication factor under bursty preemption "
              "(§III.B.1; paper picks 10; %zu seed(s))\n\n",
              opts.seeds.size());
  exp::SweepSpec spec;
  spec.name = "ablation_replication";
  spec.configs = std::size(kFactors);
  spec.config_labels = {"rep2", "rep3", "rep10"};
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec, [&opts, &scenario](std::size_t config, std::uint64_t seed) {
        return Run(kFactors[config], seed, opts, scenario);
      });

  TextTable table({"replication", "response (s)", "failed jobs",
                   "missing blocks", "re-replications", "re-repl (GiB)"});
  for (std::size_t c = 0; c < spec.configs; ++c) {
    table.AddRow({std::to_string(kFactors[c]),
                  FormatDouble(sweep.Mean(c, "response_s"), 0),
                  FormatDouble(sweep.Mean(c, "failed_jobs"), 1),
                  FormatDouble(sweep.Mean(c, "missing_blocks"), 1),
                  FormatDouble(sweep.Mean(c, "replications"), 0),
                  FormatDouble(sweep.Mean(c, "replication_gib"), 1)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: low replication risks missing blocks / failed or "
      "stalled jobs when bursts outrun the replication monitor; replication "
      "10 keeps data available at the cost of heavier re-replication "
      "traffic (the paper's trade-off: 'too many replicas would impose "
      "extra overhead ... too few would cause frequent data failures').\n");
  const auto missing = [&](std::size_t c) {
    return sweep.Mean(c, "missing_blocks");
  };
  std::printf("Replication 10 loses no more data than 2: %s\n",
              missing(2) <= missing(0) ? "YES" : "NO");
  return 0;
}
