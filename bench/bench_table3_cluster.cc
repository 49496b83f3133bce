// Reproduces Table III — the dedicated MapReduce cluster — and measures
// the baseline it anchors: the Facebook workload's response time on that
// cluster (the dashed line of Fig. 4), as a multi-seed sweep with CI.
#include <cstdio>
#include <iostream>

#include "src/baseline/dedicated_cluster.h"
#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  if (opts.fast) opts.seeds.resize(1);

  std::printf("Table III: dedicated MapReduce cluster configuration\n\n");
  TextTable table({"Nodes", "Quantity", "Configuration"});
  table.AddRow({"Master node", "1", "2x 2.2GHz CPUs, 1 Gbps Ethernet"});
  table.AddRow({"Slave nodes-I", "20",
                "2x dual-core 2.2GHz, 1 Gbps, 4 map + 1 reduce slots"});
  table.AddRow({"Slave nodes-II", "10",
                "2x single-core 2.2GHz, 1 Gbps, 2 map + 1 reduce slots"});
  table.Print(std::cout);

  baseline::DedicatedCluster probe(1);
  std::printf("\nInstantiated cluster: %d slaves, %d map slots, %d reduce "
              "slots (paper: 100 cores)\n",
              probe.slave_count(), probe.total_map_slots(),
              probe.total_reduce_slots());

  std::printf("\nBaseline measurement (Facebook workload, %zu run(s)):\n\n",
              opts.seeds.size());
  exp::SweepSpec spec;
  spec.name = "table3";
  spec.configs = 1;
  spec.config_labels = {"cluster100"};
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec, [](std::size_t, std::uint64_t seed) -> exp::Metrics {
        const auto result = exp::RunClusterWorkload(seed);
        return {{"response_s", result.response_time_s},
                {"jobs_ok", static_cast<double>(result.succeeded)},
                {"jobs_failed", static_cast<double>(result.failed)}};
      });

  TextTable runs({"seed", "response time (s)", "jobs ok", "jobs failed"});
  for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
    const exp::RunRecord& run = sweep.run(0, s, spec.seeds.size());
    runs.AddRow({std::to_string(run.seed),
                 FormatDouble(run.Metric("response_s"), 0),
                 FormatDouble(run.Metric("jobs_ok"), 0),
                 FormatDouble(run.Metric("jobs_failed"), 0)});
  }
  runs.Print(std::cout);
  const exp::MetricSummary& response = sweep.Summary(0, "response_s");
  std::printf("\nCluster baseline: mean %.0f s +-%.0f (95%% CI; the Fig. 4 "
              "dashed line)\n",
              response.stats.mean(), response.ci95_halfwidth);
  return 0;
}
