// Ablation for §III.B — failure-detection latency. HOG lowers the
// heartbeat recheck (namenode) and tracker expiry (jobtracker) from the
// traditional ~15 minutes to 30 seconds. Under grid churn, slow detection
// leaves dead nodes carrying phantom replicas and assigned-but-dead tasks
// for many minutes. Swept across seeds; each recheck setting is a config.
#include <cstdio>
#include <iostream>

#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

namespace {

struct Case {
  const char* name;
  SimDuration recheck;
};

constexpr Case kCases[] = {
    {"HOG (30 s)", 30 * kSecond},
    {"2 min", 2 * kMinute},
    {"traditional (15 min)", 15 * kMinute},
};

exp::Metrics Run(const Case& c, std::uint64_t seed,
                 const exp::BenchOptions& opts,
                 const fault::Scenario& scenario) {
  hog::HogConfig config;
  config.heartbeat_recheck = c.recheck;
  exp::HogRun run(seed, config, exp::HogRunOptionsFrom(opts));
  if (!run.SpinUp(60)) {
    return {{"response_s", 0.0}, {"failed_jobs", 0.0}, {"maps_reexecuted", 0.0}};
  }
  run.Prepare(exp::FacebookSchedule(seed, opts.fast));
  run.Submit(&scenario);
  run.Run();
  const exp::HogRunResult result = run.Finish();
  return {{"response_s", result.workload.response_time_s},
          {"failed_jobs", static_cast<double>(result.workload.failed)},
          {"maps_reexecuted", static_cast<double>(result.maps_reexecuted)}};
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  if (opts.fast) opts.seeds.resize(1);
  const fault::Scenario scenario = exp::LoadBenchScenario(opts);

  std::printf("Ablation: failure-detection timeout under grid churn "
              "(§III.B; paper lowers ~15 min -> 30 s; %zu seed(s))\n\n",
              opts.seeds.size());
  exp::SweepSpec spec;
  spec.name = "ablation_heartbeat";
  spec.configs = std::size(kCases);
  spec.config_labels = {"recheck_30s", "recheck_2min", "recheck_15min"};
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec, [&opts, &scenario](std::size_t config, std::uint64_t seed) {
        return Run(kCases[config], seed, opts, scenario);
      });

  TextTable table({"recheck", "response (s)", "ci95", "failed jobs",
                   "maps re-executed"});
  for (std::size_t c = 0; c < spec.configs; ++c) {
    table.AddRow({kCases[c].name, FormatDouble(sweep.Mean(c, "response_s"), 0),
                  "+-" + FormatDouble(
                             sweep.Summary(c, "response_s").ci95_halfwidth, 0),
                  FormatDouble(sweep.Mean(c, "failed_jobs"), 1),
                  FormatDouble(sweep.Mean(c, "maps_reexecuted"), 0)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: with 15-minute detection, every preemption parks "
      "task attempts and replicas on a dead node for up to 15 minutes "
      "before recovery starts, stretching (or wedging) the workload; 30 s "
      "detection recovers almost immediately.\n");
  const auto response = [&](std::size_t c) {
    return sweep.Mean(c, "response_s");
  };
  std::printf("30 s detection fastest: %s\n",
              (response(0) <= response(1) && response(0) <= response(2))
                  ? "YES"
                  : "NO");
  return 0;
}
