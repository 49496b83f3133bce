#include "src/exp/sched_run.h"

#include <vector>

#include "src/fault/random_scenario.h"
#include "src/util/rng.h"
#include "src/workload/facebook.h"

namespace hogsim::exp {

namespace {

/// Three personas with distinct pools, queues, and job shapes — enough
/// contention for fair shares, capacity routing, and FIFO ordering to
/// produce different trajectories on the same arrival sequence. The
/// persona cycle keys `bin` so per-persona stats stay separable
/// downstream.
std::vector<workload::ScheduledJob> Personas() {
  return {
      // heavy production pipelines
      {.bin = 1, .maps = 20, .reduces = 4, .name = "etl", .user = "etl",
       .queue = "prod"},
      // medium interactive queries
      {.bin = 2, .maps = 10, .reduces = 2, .name = "analyst",
       .user = "analyst", .queue = "prod"},
      // small opportunistic jobs
      {.bin = 3, .maps = 4, .reduces = 1, .name = "adhoc", .user = "adhoc",
       .queue = "adhoc"},
  };
}

}  // namespace

Metrics RunSchedWorkload(const SchedRunConfig& config, std::uint64_t seed,
                         HogRunOptions options) {
  options.audit = true;
  HogRun run(seed, {}, options);
  const bool reached = run.SpinUp(config.nodes);
  if (reached) {
    Rng rng(seed);
    run.Prepare(workload::CycleSchedule(Personas(), config.jobs, rng));
    // The chaos palette is keyed by chaos_seed alone: every policy and
    // every sweep seed replays the identical fault sequence, so metric
    // deltas between configs isolate the policy.
    fault::Scenario chaos;
    if (config.chaos_seed != 0) {
      chaos = fault::RandomScenario(config.chaos_seed);
    }
    run.Submit(&chaos);
    run.Run();
  }
  const HogRunResult result = run.Finish();

  const mr::JobTracker& jt = run.cluster().jobtracker();
  const double tasks_done = TasksCompleted(jt);
  Metrics metrics;
  metrics.emplace_back("reached_target", reached ? 1.0 : 0.0);
  metrics.emplace_back("jobs_succeeded", result.workload.succeeded);
  metrics.emplace_back("jobs_failed", result.workload.failed);
  metrics.emplace_back("all_terminated",
                       result.workload.completed ? 1.0 : 0.0);
  metrics.emplace_back("response_s", result.workload.response_time_s);
  metrics.emplace_back("tasks_completed", tasks_done);
  metrics.emplace_back(
      "goodput_per_slot_hour",
      GoodputPerSlotHour(tasks_done, config.nodes,
                         result.workload.response_time_s));
  metrics.emplace_back("attempts_launched",
                       static_cast<double>(jt.attempts_launched()));
  metrics.emplace_back("speculative_attempts",
                       static_cast<double>(jt.speculative_attempts()));
  metrics.emplace_back("attempts_preempted",
                       static_cast<double>(jt.attempts_preempted()));
  metrics.emplace_back("maps_reexecuted",
                       static_cast<double>(jt.maps_reexecuted()));
  metrics.emplace_back("trackers_lost",
                       static_cast<double>(jt.trackers_declared_lost()));
  metrics.emplace_back("faults_injected",
                       static_cast<double>(result.faults_injected));
  metrics.emplace_back("executed_events",
                       static_cast<double>(run.cluster().sim().executed()));
  metrics.emplace_back("audit_violations",
                       static_cast<double>(result.audit_violations));
  return metrics;
}

}  // namespace hogsim::exp
