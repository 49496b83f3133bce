// Ablation: delay scheduling (Zaharia et al. — reference [3] of the
// paper, and the source of its workload) on HOG. HOG's replication factor
// 10 already buys excellent locality; delay scheduling is the scheduler-
// side alternative. This bench sweeps both levers across seeds: FIFO vs
// FIFO+delay at replication 3 and 10.
#include <cstdio>
#include <iostream>

#include "src/exp/paper_runs.h"
#include "src/exp/bench_main.h"
#include "src/util/table.h"

using namespace hogsim;

namespace {

struct Case {
  const char* name;
  int replication;
  SimDuration wait;
};

constexpr Case kCases[] = {
    {"rep 3, plain FIFO", 3, 0},
    {"rep 3, FIFO + delay 10 s", 3, 10 * kSecond},
    {"rep 10, plain FIFO (HOG)", 10, 0},
    {"rep 10, FIFO + delay 10 s", 10, 10 * kSecond},
};

exp::Metrics Run(const Case& c, std::uint64_t seed,
                 const exp::BenchOptions& opts,
                 const fault::Scenario& scenario) {
  hog::HogConfig config;
  config.replication = c.replication;
  config.mr.locality_wait_node = c.wait;
  config.mr.locality_wait_rack = c.wait;
  exp::HogRun run(seed, config, exp::HogRunOptionsFrom(opts));
  if (!run.SpinUp(60)) {
    return {{"response_s", 0.0}, {"local_frac", 0.0}, {"remote_input_gib", 0.0}};
  }
  run.Prepare(exp::FacebookSchedule(seed, opts.fast));
  run.Submit(&scenario);
  const auto result = run.Run();
  run.Finish();
  const mr::JobTracker& jt = run.cluster().jobtracker();
  long long local = 0, rack = 0, remote = 0;
  Bytes remote_input = 0;
  for (std::size_t j = 0; j < jt.job_count(); ++j) {
    const auto& job = jt.job(static_cast<mr::JobId>(j));
    local += job.data_local_maps;
    rack += job.rack_local_maps;
    remote += job.remote_maps;
    remote_input += job.counters.remote_input_bytes;
  }
  const long long total = local + rack + remote;
  return {{"response_s", result.response_time_s},
          {"local_frac",
           total > 0 ? static_cast<double>(local) / static_cast<double>(total)
                     : 0.0},
          {"remote_input_gib",
           static_cast<double>(remote_input) / static_cast<double>(kGiB)}};
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  if (opts.fast) opts.seeds.resize(1);
  const fault::Scenario scenario = exp::LoadBenchScenario(opts);

  std::printf("Ablation: delay scheduling vs replication as locality levers "
              "(60-node HOG; %zu seed(s))\n\n", opts.seeds.size());
  exp::SweepSpec spec;
  spec.name = "ablation_delay_scheduling";
  spec.configs = std::size(kCases);
  spec.config_labels = {"rep3_fifo", "rep3_delay10", "rep10_fifo",
                        "rep10_delay10"};
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec, [&opts, &scenario](std::size_t config, std::uint64_t seed) {
        return Run(kCases[config], seed, opts, scenario);
      });

  TextTable table({"scheduler", "response (s)", "node-local maps",
                   "remote input (GiB)"});
  for (std::size_t c = 0; c < spec.configs; ++c) {
    table.AddRow({kCases[c].name, FormatDouble(sweep.Mean(c, "response_s"), 0),
                  FormatDouble(sweep.Mean(c, "local_frac") * 100, 1) + "%",
                  FormatDouble(sweep.Mean(c, "remote_input_gib"), 1)});
  }
  table.Print(std::cout);
  std::printf(
      "\nMeasured shape: delay scheduling does raise the node-local "
      "fraction at either replication factor — but on an opportunistic "
      "grid it pays for that locality with wall-clock time: while a job "
      "waits for a 'better' node, freshly joined replacement glideins "
      "(which hold no replicas yet) sit idle. HOG's own lever — "
      "replication 10, which the paper credits with 'very good data "
      "locality' (§IV.D.2) — raises locality without idling slots, which "
      "is why the scheduler-side trick that shines on stable clusters is "
      "the wrong tool on a churning grid.\n");
  const auto local = [&](std::size_t c) { return sweep.Mean(c, "local_frac"); };
  const auto response = [&](std::size_t c) {
    return sweep.Mean(c, "response_s");
  };
  std::printf("Delay scheduling lifts locality: %s; but costs response "
              "under churn: %s\n",
              (local(1) > local(0) && local(3) > local(2)) ? "YES" : "NO",
              response(1) > response(0) ? "YES" : "NO");
  return 0;
}
