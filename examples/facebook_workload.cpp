// Runs the paper's Facebook-derived workload (Tables I & II, §IV.A) on
// either the dedicated Table III cluster or a HOG deployment of a chosen
// size, through the same runs `hogbench fig4` measures, and prints the
// workload response time plus per-bin latencies. `hog N S` prints the
// response of fig4's N-node run at seed S, and exits 1 when the deployment
// never reached its target.
//
// Usage: example_facebook_workload [cluster|hog] [nodes] [seed]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/exp/paper_runs.h"
#include "src/util/strings.h"
#include "src/util/table.h"

using namespace hogsim;

namespace {

void PrintResult(const std::string& label,
                 const workload::WorkloadResult& result) {
  std::printf("\n%s\n", label.c_str());
  std::printf("  workload response time: %.0f s (%s)\n",
              result.response_time_s,
              FormatDuration(FromSeconds(result.response_time_s)).c_str());
  std::printf("  jobs: %d succeeded, %d failed%s\n", result.succeeded,
              result.failed, result.completed ? "" : " (DEADLINE HIT)");
  TextTable table({"bin", "jobs", "mean response (s)", "max (s)"});
  for (const auto& [bin, stats] : result.per_bin_response_s) {
    table.AddRow({std::to_string(bin), std::to_string(stats.count()),
                  FormatDouble(stats.mean(), 1), FormatDouble(stats.max(), 1)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "cluster";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 100;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

  const auto schedule = exp::FacebookSchedule(seed);
  std::printf("Facebook workload: %zu jobs over %s (mean gap 14 s)\n",
              schedule.size(),
              FormatDuration(schedule.back().submit_time).c_str());

  if (mode == "cluster") {
    PrintResult("Dedicated cluster (Table III, 100 cores)",
                exp::RunClusterWorkload(seed));
  } else if (mode == "hog") {
    // HogCluster::SpinUp's rule: the configured maximum, else 95% of it.
    const exp::HogRunResult result = exp::RunHogWorkload(nodes, seed);
    if (!result.reached_target) {
      std::fprintf(stderr, "failed to reach %d nodes\n", nodes);
      return 1;
    }
    std::printf("HOG spun up; the workload started at t=%s\n",
                FormatDuration(result.window_start).c_str());
    PrintResult("HOG with " + std::to_string(nodes) + " nodes",
                result.workload);
    std::printf("  preemptions during run: %llu\n",
                static_cast<unsigned long long>(result.preemptions));
  } else {
    std::fprintf(stderr, "usage: %s [cluster|hog] [nodes] [seed]\n", argv[0]);
    return 2;
  }
  return 0;
}
