// Reproduces Figure 4 — "HOG vs. Cluster Equivalent Performance": the
// Facebook workload's response time on HOG deployments of the paper's
// sampled sizes (40..1101 nodes, 3 runs each) against the dedicated
// 100-core cluster's constant baseline. The paper's headline: HOG needs
// [99,100] nodes for equivalent performance.
//
// Sweep layout: config 0 is the dedicated cluster, configs 1..N the HOG
// sampling points; all (config, seed) runs execute in parallel on the
// exp::Sweep pool with per-run results identical to sequential execution.
// --fast (or HOGSIM_FAST=1) trims to one seed and a subset of points.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  // The paper's x-axis sampling points.
  std::vector<int> points = {40, 50, 55, 60, 99, 100, 132, 160, 171, 180,
                             974, 1101};
  if (opts.fast) {
    points = {55, 100, 180};
    opts.seeds.resize(1);
  }

  const fault::Scenario scenario = exp::LoadBenchScenario(opts);

  std::printf("Fig. 4: HOG vs. cluster equivalent performance\n");
  std::printf("(Facebook workload; %zu run(s) per point)\n\n",
              opts.seeds.size());

  exp::SweepSpec spec;
  spec.name = "fig4";
  spec.configs = 1 + points.size();
  spec.config_labels = {"cluster100"};
  for (int nodes : points) {
    spec.config_labels.push_back("hog" + std::to_string(nodes));
  }
  const exp::HogRunOptions ropts = exp::HogRunOptionsFrom(opts);
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec,
      [&points, &scenario, &ropts](std::size_t config,
                                   std::uint64_t seed) -> exp::Metrics {
        if (config == 0) {
          const auto result = exp::RunClusterWorkload(seed);
          return {{"response_s", result.response_time_s},
                  {"preemptions", 0.0},
                  {"reached", 1.0}};
        }
        const int nodes = points[config - 1];
        const auto result =
            exp::RunHogWorkload(nodes, seed, {}, &scenario, ropts);
        // An unreached deployment target leaves the response unmeasurable;
        // NaN serializes as null and is excluded from the summaries.
        const double response = result.reached_target
                                    ? result.workload.response_time_s
                                    : std::nan("");
        return {{"response_s", response},
                {"preemptions", static_cast<double>(result.preemptions)},
                {"reached", result.reached_target ? 1.0 : 0.0}};
      });

  const std::size_t n_seeds = spec.seeds.size();
  const double cluster_mean = sweep.Mean(0, "response_s");
  std::printf("\nDedicated cluster (100 cores): %.0f s\n\n", cluster_mean);

  TextTable table({"max nodes", "runs (s)", "mean (s)", "ci95", "vs cluster",
                   "preempt/run"});
  double prev_mean = -1;
  int crossover = -1;
  int prev_point = -1;
  for (std::size_t c = 1; c < spec.configs; ++c) {
    const int nodes = points[c - 1];
    std::string per_seed;
    for (std::size_t s = 0; s < n_seeds; ++s) {
      const exp::RunRecord& run = sweep.run(c, s, n_seeds);
      if (s) per_seed += " / ";
      const double seconds = run.Metric("response_s");
      per_seed += std::isfinite(seconds) ? FormatDouble(seconds, 0)
                                         : "unreached";
    }
    const exp::MetricSummary& response = sweep.Summary(c, "response_s");
    const exp::MetricSummary& preempts = sweep.Summary(c, "preemptions");
    table.AddRow({std::to_string(nodes), per_seed,
                  FormatDouble(response.stats.mean(), 0),
                  "+-" + FormatDouble(response.ci95_halfwidth, 0),
                  FormatDouble(response.stats.mean() / cluster_mean, 2) + "x",
                  FormatDouble(preempts.stats.mean(), 0)});
    if (crossover < 0 && prev_mean > cluster_mean &&
        response.stats.mean() <= cluster_mean &&
        response.stats.count() > 0) {
      // Linear interpolation between the two sampling points.
      crossover = prev_point +
                  static_cast<int>((prev_mean - cluster_mean) /
                                   (prev_mean - response.stats.mean()) *
                                   (nodes - prev_point));
    }
    prev_mean = response.stats.mean();
    prev_point = nodes;
  }
  table.Print(std::cout);

  if (crossover > 0) {
    std::printf("\nEquivalent performance at ~%d HOG nodes "
                "(paper: [99,100]).\n", crossover);
  } else {
    std::printf("\nNo crossover detected in the sampled range.\n");
  }
  std::printf("Expected shape: response decreases with nodes but not "
              "monotonically (churn), with diminishing returns toward 1101 "
              "nodes (§IV.C).\n");
  return 0;
}
