#include "src/exp/gray_run.h"

#include <utility>
#include <vector>

#include "src/fault/scenario.h"
#include "src/health/quarantine.h"
#include "src/util/rng.h"
#include "src/workload/facebook.h"

namespace hogsim::exp {

namespace {

/// A heavy job then two light ones, repeated — enough slot pressure that
/// a 4x-slowed node drags job tails and attracts speculation, the signal
/// quarantine's degraded-node probe keys on.
std::vector<workload::ScheduledJob> StormShapes() {
  workload::ScheduledJob heavy;
  heavy.bin = 1;
  heavy.maps = 18;
  heavy.reduces = 3;
  heavy.name = "storm";
  workload::ScheduledJob light = heavy;
  light.bin = 2;
  light.maps = 6;
  light.reduces = 1;
  return {heavy, light, light};
}

}  // namespace

Metrics RunGrayDetection(const GrayDetectionConfig& config,
                         std::uint64_t seed, HogRunOptions options) {
  hog::HogConfig hog = QuietGrid();
  // HogCluster fans heartbeat_recheck out to both masters (tracker expiry
  // and datanode recheck) — the per-layer knobs would be overwritten.
  hog.heartbeat_recheck = config.expiry;
  options.detector = config.detector;
  HogRun run(seed, std::move(hog), options);
  hog::HogCluster& cluster = run.cluster();
  const bool reached = run.SpinUp(config.nodes);

  const mr::JobTracker& jt = cluster.jobtracker();
  obs::Histogram& latency_hist = cluster.sim().obs().metrics().GetHistogram(
      "mr.tracker.detection_latency_s");
  double false_suspects = 0;
  double detect_all_s = -1;
  double detect_mean_silence_s = 0;
  double killed = 0;
  if (reached) {
    // Jitter palette on: every running node's daemons hold each heartbeat
    // back by a hash-derived delay in [0, jitter].
    grid::Grid& grid = cluster.grid();
    if (config.jitter > 0) {
      for (std::size_t s = 0; s < grid.site_count(); ++s) {
        (void)grid.DelayHeartbeats(s, config.jitter);
      }
    }

    // Adaptation window (uncounted): an adaptive detector re-learns its
    // inter-arrival statistics after the jitter onset; a real rollout
    // would not charge the detector for the regime change either.
    if (config.adapt_window > 0) {
      cluster.sim().RunUntil(cluster.sim().now() + config.adapt_window);
    }

    // Steady window: nothing dies, so every declare is a false suspicion
    // (the lost tracker's next heartbeat revives it as a flap).
    const std::uint64_t lost_before = jt.trackers_declared_lost();
    cluster.sim().RunUntil(cluster.sim().now() + config.steady_window);
    false_suspects =
        static_cast<double>(jt.trackers_declared_lost() - lost_before);

    // Cold kill of site 0: how long until every killed tracker is
    // declared? The declared-lost counter is the watch condition (not
    // live_trackers: the grid backfills the lost capacity, and a slow
    // detector can still be working through the dead while replacement
    // glideins register).
    int at_site = 0;
    for (grid::GridNodeId id = 0; id < grid.total_leases(); ++id) {
      const grid::GridNode* node = grid.node(id);
      if (node != nullptr && node->running() && node->site_index() == 0) {
        ++at_site;
      }
    }
    killed = at_site;
    const std::uint64_t declared_before = jt.trackers_declared_lost();
    const std::uint64_t hist_count = latency_hist.count();
    const double hist_sum = latency_hist.sum();
    const SimTime kill_at = cluster.sim().now();
    grid.PreemptSiteFraction(0, 1.0);
    const bool all_declared = cluster.RunUntil(
        [&jt, declared_before, at_site] {
          return jt.trackers_declared_lost() >=
                 declared_before + static_cast<std::uint64_t>(at_site);
        },
        kill_at + config.detect_deadline);
    if (all_declared) {
      detect_all_s = ToSeconds(cluster.sim().now() - kill_at);
    }
    const std::uint64_t declares = latency_hist.count() - hist_count;
    if (declares > 0) {
      detect_mean_silence_s =
          (latency_hist.sum() - hist_sum) / static_cast<double>(declares);
    }
  }
  run.Finish();

  Metrics metrics;
  metrics.emplace_back("reached_target", reached ? 1.0 : 0.0);
  metrics.emplace_back("false_suspects", false_suspects);
  metrics.emplace_back("trackers_killed", killed);
  metrics.emplace_back("detect_all_s", detect_all_s);
  metrics.emplace_back("detect_mean_silence_s", detect_mean_silence_s);
  metrics.emplace_back("executed_events",
                       static_cast<double>(cluster.sim().executed()));
  return metrics;
}

Metrics RunGrayStorm(const GrayStormConfig& config, std::uint64_t seed,
                     HogRunOptions options) {
  hog::HogConfig hog = QuietGrid();
  hog.quarantine.enabled = config.quarantine;
  options.audit = true;
  HogRun run(seed, std::move(hog), options);
  hog::HogCluster& cluster = run.cluster();
  const bool reached = run.SpinUp(config.nodes);
  if (reached) {
    Rng rng(seed);
    run.Prepare(workload::CycleSchedule(StormShapes(), config.jobs, rng));
    // The storm: the first `slow_nodes` leases drop to 1/slow_factor
    // compute speed for the rest of the run. Built in code (not a file)
    // so the bench is cwd-independent; the committed
    // scenarios/slow_node_storm.txt drives the same grammar in check.sh.
    fault::Scenario storm;
    storm.name = "slow-node-storm";
    for (int i = 0; i < config.slow_nodes; ++i) {
      fault::TimedAction timed;
      timed.at = config.slow_at;
      timed.action.kind = fault::ActionKind::kSlowNode;
      timed.action.node = i;
      timed.action.value = config.slow_factor;
      storm.actions.push_back(timed);
    }
    run.Submit(&storm);
    run.Run();
  }
  const HogRunResult result = run.Finish();

  const mr::JobTracker& jt = cluster.jobtracker();
  const double tasks_done = TasksCompleted(jt);
  const health::Quarantine* q = cluster.quarantine();

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
  metrics.emplace_back("speculative_attempts",
                       static_cast<double>(jt.speculative_attempts()));
  metrics.emplace_back("maps_reexecuted",
                       static_cast<double>(jt.maps_reexecuted()));
  metrics.emplace_back(
      "degraded_detected",
      static_cast<double>(cluster.sim().obs().metrics().GetCounter(
          "health.degraded.detected").value()));
  metrics.emplace_back(
      "probations", q != nullptr ? static_cast<double>(q->probations_entered())
                                 : 0.0);
  metrics.emplace_back(
      "probated_at_end",
      q != nullptr ? static_cast<double>(q->probated_count()) : 0.0);
  metrics.emplace_back("faults_injected",
                       static_cast<double>(result.faults_injected));
  metrics.emplace_back("executed_events",
                       static_cast<double>(cluster.sim().executed()));
  metrics.emplace_back("audit_violations",
                       static_cast<double>(result.audit_violations));
  return metrics;
}

}  // namespace hogsim::exp
