// Chaos bench: the Facebook workload on a 55-node HOG deployment under a
// declarative fault scenario (src/fault). Without --scenario this is a
// clean control run; with one (e.g. scenarios/site_storm.txt) the same
// faults hit every seed at the same workload-relative instants, so the
// sweep measures recovery cost, not luck. Pairs with compare_bench: keep a
// BENCH_scenario_storm.json produced under a committed scenario and any
// regression in re-execution or recovery shows up as a CI-overlap failure.
//
//   bench_scenario_storm --fast --scenario=scenarios/site_storm.txt
//
// The sweep is byte-deterministic across --threads settings: scenarios are
// armed per-run on that run's own Simulation and draw no run RNG.
#include <cstdio>
#include <iostream>
#include <utility>

#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  if (opts.fast) opts.seeds.resize(1);
  const fault::Scenario scenario = exp::LoadBenchScenario(opts);

  std::printf("Scenario storm: 55-node HOG under injected faults "
              "(%zu seed(s))\n", opts.seeds.size());
  if (scenario.empty()) {
    std::printf("(no --scenario given: clean control run — try "
                "--scenario=scenarios/site_storm.txt)\n\n");
  } else {
    std::printf("(scenario \"%s\": %zu action(s))\n\n",
                scenario.name.c_str(), scenario.actions.size());
  }

  exp::SweepSpec spec;
  spec.name = "scenario_storm";
  spec.configs = 1;
  spec.config_labels = {"hog55"};
  // --audit arms the fail-fast invariant auditor: the storm then proves
  // not just that jobs survive, but that every layer stays consistent.
  const exp::HogRunOptions ropts = exp::HogRunOptionsFrom(opts);
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec,
      [&scenario, &ropts](std::size_t, std::uint64_t seed) -> exp::Metrics {
        const auto result = exp::RunHogWorkload(55, seed, {}, &scenario, ropts);
        return {{"response_s", result.workload.response_time_s},
                {"failed_jobs",
                 static_cast<double>(result.workload.failed)},
                {"preemptions", static_cast<double>(result.preemptions)},
                {"maps_reexecuted",
                 static_cast<double>(result.maps_reexecuted)},
                {"faults_injected",
                 static_cast<double>(result.faults_injected)}};
      });

  TextTable table({"metric", "mean", "ci95"});
  const std::pair<const char*, const char*> rows[] = {
      {"response (s)", "response_s"},
      {"failed jobs", "failed_jobs"},
      {"preemptions", "preemptions"},
      {"maps re-executed", "maps_reexecuted"},
      {"faults injected", "faults_injected"}};
  for (const auto& [label, metric] : rows) {
    const exp::MetricSummary& summary = sweep.Summary(0, metric);
    table.AddRow({label, FormatDouble(summary.stats.mean(), 1),
                  "+-" + FormatDouble(summary.ci95_halfwidth, 1)});
  }
  table.Print(std::cout);
  std::printf(
      "\nReading the table: `faults injected` counts scenario actions that "
      "actually landed (see the fault.* counters in --metrics-out for the "
      "per-kind split); preemptions and re-executed maps show what the "
      "storm cost, response what the recovery machinery bought back.\n");
  return 0;
}
