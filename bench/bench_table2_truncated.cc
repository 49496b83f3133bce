// Reproduces Table II — "Truncated workload for this paper": map and
// (paper-added) reduce task counts for bins 1-6, with the non-decreasing
// reduce rule — and sweeps the generated schedules' aggregate task totals
// across seeds (they must be seed-invariant: the bin mix is exact).
#include <cstdio>
#include <iostream>

#include "src/exp/bench_main.h"
#include "src/util/table.h"
#include "src/workload/facebook.h"

using namespace hogsim;

int main(int argc, char** argv) {
  const exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);

  std::printf("Table II: truncated workload (paper, verbatim)\n\n");
  TextTable table({"Bin", "Map Tasks", "Reduce Tasks"});
  for (const auto& bin : workload::FacebookTable2()) {
    table.AddRow({std::to_string(bin.bin), std::to_string(bin.map_tasks),
                  std::to_string(bin.reduce_tasks)});
  }
  table.Print(std::cout);

  exp::SweepSpec spec;
  spec.name = "table2";
  spec.configs = 1;
  spec.config_labels = {"schedule_totals"};
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec, [](std::size_t, std::uint64_t seed) -> exp::Metrics {
        Rng rng(seed);
        workload::WorkloadConfig config;
        const auto schedule = workload::GenerateFacebookSchedule(rng, config);
        long long maps = 0, reduces = 0, input = 0;
        for (const auto& job : schedule) {
          maps += job.maps;
          reduces += job.reduces;
          input += static_cast<long long>(job.maps) * config.block_size;
        }
        return {{"map_tasks", static_cast<double>(maps)},
                {"reduce_tasks", static_cast<double>(reduces)},
                {"input_gib", static_cast<double>(input) / kGiB}};
      });

  const RunningStats& maps = sweep.Summary(0, "map_tasks").stats;
  const RunningStats& reduces = sweep.Summary(0, "reduce_tasks").stats;
  std::printf("\nSchedule totals (every seed): %.0f map tasks, %.0f reduce "
              "tasks, %.1f GiB of input data (64 MiB per map, §II.A)\n",
              maps.mean(), reduces.mean(),
              sweep.Mean(0, "input_gib"));
  std::printf("Totals seed-invariant (stddev 0): %s\n",
              (maps.stddev() == 0 && reduces.stddev() == 0)
                  ? "YES"
                  : "NO");
  return 0;
}
