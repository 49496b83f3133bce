// The extension seams as hogbench experiments: the scheduler head-to-head,
// the scale grid and the gray-failure frontier.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/exp/experiments.h"
#include "src/fault/random_scenario.h"
#include "src/health/quarantine.h"
#include "src/util/rng.h"
#include "src/workload/facebook.h"
#include "src/workload/runner.h"

namespace hogsim::exp {

namespace {

std::string Printf(const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

// ---------------------------------------------------------------------------
// sched: the same multi-user workload, cluster and chaos palette under each
// policy in the zoo (fifo / fair / capacity / atlas), so every metric
// delta between rows is attributable to the policy alone. The headline is
// goodput_per_slot_hour — tasks of succeeded jobs per nominal slot-hour —
// which rewards keeping slots busy with work that survives the faults, and
// penalizes both idling (capacity hard caps) and wasted re-execution
// (failure-oblivious placement). Every row is deterministic per (config,
// seed), so BENCH_sched.json is gateable without a host/deterministic
// split. Gate: every run reaches its node target, brings every job to a
// terminal state, and audits clean. Chaos may legitimately fail a job
// (max_attempts exhausted on a dying site) — same contract as the soak —
// and failed jobs already drag the goodput headline, so failures are
// compared, not gated.

/// The chaos palette every policy and seed faces: keyed by this seed
/// alone, so metric deltas between configs isolate the policy.
constexpr std::uint64_t kSchedChaosSeed = 7001;

/// Three personas with distinct pools, queues, and job shapes — enough
/// contention for fair shares, capacity routing, and FIFO ordering to
/// produce different trajectories on the same arrival sequence. The
/// persona cycle keys `bin` so per-persona stats stay separable.
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

struct PolicyRow {
  std::string label;
  std::string spec;  // sched::CreatePolicy spec
  bool fast = false;
};

Plan SchedPlan(const Setup& setup) {
  // fifo, fair and atlas are the --fast rows, with the full run's labels,
  // specs and seeds, so a fast candidate compares row-for-row against the
  // committed full baseline.
  std::vector<PolicyRow> zoo = {
      {"fifo", "fifo", true},
      {"fair", "fair", true},
      {"atlas", "atlas", true},
      {"capacity", "capacity:queues=prod:0.7:1;adhoc:0.3:1"},
  };
  // --scheduler restricts the head-to-head to one row; an exact label
  // match keeps the row comparable against the committed baseline, and
  // any other spec becomes a single custom row (label = spec).
  const std::string& scheduler = setup.opts.hog.scheduler;
  if (!scheduler.empty()) {
    std::erase_if(zoo, [&](const PolicyRow& row) {
      return row.label != scheduler || (setup.opts.fast && !row.fast);
    });
    if (zoo.empty()) zoo.push_back({scheduler, scheduler, true});
  }
  Plan plan;
  for (const PolicyRow& row : zoo) {
    HogRunOptions ropts = setup.opts.hog;
    ropts.scheduler = row.spec;
    plan.configs.push_back(
        {.label = row.label,
         .fast = row.fast,
         .checks = {Eq("reached_target", 1), Eq("all_terminated", 1),
                    Eq("audit_violations", 0)},
         .run = [ropts](std::uint64_t seed) {
           return RunSchedWorkload({}, seed, ropts);
         }});
  }
  plan.columns = {
      {.header = "goodput (tasks/slot-h)", .metric = "goodput_per_slot_hour",
       .decimals = 2},
      {.header = "vs fifo", .metric = "goodput_per_slot_hour",
       .stat = Stat::kRatio, .of = "fifo", .decimals = 2, .unit = "x"},
      {.header = "response (s)", .metric = "response_s"},
      {.header = "jobs failed", .metric = "jobs_failed", .decimals = 1},
      {.header = "speculative attempts", .metric = "speculative_attempts",
       .decimals = 1},
      {.header = "maps re-executed", .metric = "maps_reexecuted",
       .decimals = 1}};
  return plan;
}

// ---------------------------------------------------------------------------
// scale: nodes x jobs sweeps over the HOG cluster, up to 10k glideins
// across 100 sites — the asymptotics regression gate. The incremental
// even-share re-rating, the deadline-heap expiry monitors, and the flat
// block/node arenas all claim O(changed state) costs; this runs grids
// large enough that an accidental O(cluster) scan shows up in wall-clock
// and events/sec. Every config arms the fail-fast invariant auditor, so a
// 10k-node run finishing at all is also a correctness statement. Every run
// must also cancel at most 5% as many events as it executes: with one
// completion event per flow, each spin-up download on the master's NIC
// cancelled and rescheduled every other download's event (n^2
// cancellations), and this gate keeps that storm from coming back.
//
// Metric split: deterministic rows (executed_events, jobs_succeeded,
// audit_violations, ...) are byte-stable across machines and thread
// counts; host rows (host.wall_s, host.peak_rss_mib, host.events_per_sec)
// describe the machine that ran them, so compare_bench reports them and
// checks only the deterministic rows.

/// Gate: cancelled_events <= kMaxCancelShare x executed_events per run.
constexpr double kMaxCancelShare = 0.05;

/// Peak RSS of this process in MiB; NaN where getrusage is unavailable.
/// The counter is process-wide and monotonic, so in a multi-config sweep
/// a config inherits the peak of everything that ran before it — only the
/// largest config's row is a tight bound, which is the one the baseline
/// gate cares about.
double PeakRssMib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
#endif
#else
  return std::numeric_limits<double>::quiet_NaN();
#endif
}

/// `count` stable sites: no preemption, no bursts, short queue delays.
/// Scale runs measure data-structure asymptotics (heartbeat fan-in, block
/// arenas, flow churn), so grid volatility would only add noise — chaos
/// coverage lives in the fault experiments.
std::vector<grid::SiteConfig> StableSites(int count, int pool_per_site) {
  std::vector<grid::SiteConfig> sites;
  sites.reserve(count);
  for (int i = 0; i < count; ++i) {
    grid::SiteConfig site;
    site.resource_name = "SCALE_" + std::to_string(i);
    site.domain = "site" + std::to_string(i) + ".scale.edu";
    site.pool_size = pool_per_site;
    site.queue_delay_mean_s = 60.0;
    site.node_mtbf_s = 1e12;
    site.burst_interval_s = 1e12;
    site.burst_fraction = 0.0;
    sites.push_back(std::move(site));
  }
  return sites;
}

/// Four loadgen size classes (bins 1-4 key the per-bin stats).
std::vector<workload::ScheduledJob> SizeClasses() {
  std::vector<workload::ScheduledJob> shapes;
  for (const int maps : {5, 10, 20, 50}) {
    workload::ScheduledJob job;
    job.bin = static_cast<int>(shapes.size()) + 1;
    job.maps = maps;
    job.reduces = std::max(1, maps / 5);
    job.name = "scale";
    shapes.push_back(std::move(job));
  }
  return shapes;
}

Plan ScalePlan(const Setup& setup) {
  struct GridPoint {
    const char* label;
    ScaleConfig config;
  };
  const GridPoint grid[] = {
      // CI-sized points (also the --fast grid): nodes and jobs vary
      // independently so each axis has a gate.
      {"500n-5s-30j", {500, 5, 30}},
      {"500n-5s-120j", {500, 5, 120}},
      {"2000n-20s-30j", {2000, 20, 30}},
      // Full-grid points: past the paper's 1101-node experiment, up to
      // the 10k-glidein / 100-site headline run.
      {"2000n-20s-120j", {2000, 20, 120}},
      {"10000n-100s-60j", {10000, 100, 60}},
  };
  constexpr std::size_t kFastConfigs = 3;
  Plan plan;
  for (std::size_t i = 0; i < std::size(grid); ++i) {
    const ScaleConfig point = grid[i].config;
    plan.configs.push_back(
        {.label = grid[i].label,
         .fast = i < kFastConfigs,
         .checks = {Eq("reached_target", 1), Eq("jobs_failed", 0),
                    Eq("jobs_succeeded", point.jobs),
                    Eq("audit_violations", 0),
                    AtMost("cancelled_events", kMaxCancelShare,
                           "executed_events")},
         .run = [&setup, point](std::uint64_t seed) {
           return RunScaleWorkload(point, seed, setup.opts.hog);
         }});
  }
  plan.columns = {
      {.header = "sim hours", .metric = "sim_hours", .decimals = 2},
      {.header = "executed events", .metric = "executed_events",
       .decimals = 2, .scale = 1e-6, .unit = "M"},
      {.header = "cancelled events", .metric = "cancelled_events"},
      {.header = "wall (s)", .metric = "host.wall_s", .decimals = 1},
      {.header = "events/s", .metric = "host.events_per_sec", .scale = 1e-3,
       .unit = "k"},
      {.header = "peak RSS (MiB)", .metric = "host.peak_rss_mib"}};
  return plan;
}

// ---------------------------------------------------------------------------
// gray: the detection-latency vs false-positive frontier of the
// failure-detector zoo, and the goodput value of node quarantine under a
// slow-node storm. Every row is deterministic per (config, seed).
//
// Frontier rows: per jitter palette (max per-heartbeat delay J), a quiet
// cluster runs a 2 h steady window (every tracker declared lost is a false
// suspicion) and then loses one whole site cold (detect_all_s = time to
// declare every killed tracker, NaN if the wait times out). The
// fixed-deadline ladder (dl30 / dl90 / dl240) exposes its inherent trade
// — a deadline short enough to detect fast false-fires under jitter, one
// long enough to stay quiet under every palette is slow everywhere —
// while one phi-accrual config adapts its silence budget to the observed
// cadence. Gates, per palette: phi stays at
// zero false suspicions, no deadline point dominates phi, and phi
// strictly dominates at least one deadline point (fp no worse, detect
// strictly faster). A seed that never declared counts as never (+inf) in
// the detection means.
//
// Storm rows: a multi-job workload during which a fixed set of leases is
// slowed 4x, with quarantine off vs on. Gate: mean goodput_per_slot_hour
// with quarantine strictly beats the run without it, and both audit clean.
//
// --fast keeps the noisy j45 palette and both storm rows, with identical
// per-row parameters, so fast rows match the committed baseline.

// Detection protocol: target glideins on the quiet default OSG sites (no
// churn, so every lost tracker is the detector's doing); an uncounted
// settle window after jitter onset, in which an adaptive detector
// re-learns its inter-arrival statistics without being charged for the
// regime change; the false-suspicion window; the give-up bound for the
// post-kill declare-all wait.
constexpr int kDetectNodes = 25;
constexpr SimDuration kAdaptWindow = 20 * kMinute;
constexpr SimDuration kSteadyWindow = 2 * kHour;
constexpr SimDuration kDetectDeadline = 2 * kHour;

// Storm: target glideins (quiet grid; the storm is the only fault
// source), schedule length, the leases slowed (lease ids
// 0..kSlowNodes-1) and by how much, and the onset relative to workload
// submission. Early onset: the probation ramp (min_task_samples slow maps
// per node) must fit well inside the measured window for quarantine to
// pay.
constexpr int kStormNodes = 40;
constexpr int kStormJobs = 48;
constexpr int kSlowNodes = 8;
constexpr double kSlowFactor = 4.0;
constexpr SimTime kSlowAt = 30 * kSecond;

/// A quiet cluster under a heartbeat-jitter palette (the delay-heartbeats
/// gray fault applied to every site): counts false suspicions over the
/// steady window, then preempts one site cold and measures how long
/// `detector` takes to declare every killed tracker. `expiry` is both
/// masters' heartbeat recheck: the deadline detector's timeout and the phi
/// detector's bootstrap silence budget. The detector under test overrides
/// options.detector.
Metrics RunGrayDetection(const std::string& detector, SimDuration expiry,
                         SimDuration jitter, std::uint64_t seed,
                         HogRunOptions options) {
  hog::HogConfig hog = QuietGrid();
  hog.hdfs.heartbeat_recheck = hog.mr.tracker_expiry = expiry;
  options.detector = detector;
  HogRun run(seed, std::move(hog), options);
  hog::HogCluster& cluster = run.cluster();
  const bool reached = run.SpinUp(kDetectNodes);

  const mr::JobTracker& jt = cluster.jobtracker();
  obs::Histogram& latency_hist = cluster.sim().obs().metrics().GetHistogram(
      "mr.tracker.detection_latency_s");
  // NaN: never declared (or never spun up).
  double false_suspects = 0;
  double detect_all_s = std::nan("");
  double detect_mean_silence_s = std::nan("");
  double killed = 0;
  if (reached) {
    // Jitter palette on: every running node's daemons hold each heartbeat
    // back by a hash-derived delay in [0, jitter].
    grid::Grid& grid = cluster.grid();
    if (jitter > 0) {
      for (const grid::GridNodeId id : grid.RunningNodeIds()) {
        (void)grid.SetNodeHeartbeatJitter(id, jitter);
      }
    }

    // Adaptation window (uncounted).
    cluster.sim().RunUntil(cluster.sim().now() + kAdaptWindow);

    // Steady window: nothing dies, so every declare is a false suspicion
    // (the lost tracker's next heartbeat revives it as a flap).
    const std::uint64_t lost_before = jt.trackers_declared_lost();
    cluster.sim().RunUntil(cluster.sim().now() + kSteadyWindow);
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
    const bool all_declared = workload::RunSimUntil(
        cluster.sim(),
        [&jt, declared_before, at_site] {
          return jt.trackers_declared_lost() >=
                 declared_before + static_cast<std::uint64_t>(at_site);
        },
        kill_at + kDetectDeadline);
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

/// The slow-node storm workload, with health::Quarantine armed or not.
/// The auditor is always armed: its violations are a row the gate reads.
Metrics RunGrayStorm(bool quarantine, std::uint64_t seed,
                     HogRunOptions options) {
  hog::HogConfig hog = QuietGrid();
  if (quarantine) hog.quarantine.emplace();
  options.audit = true;
  HogRun run(seed, std::move(hog), options);
  hog::HogCluster& cluster = run.cluster();
  const bool reached = run.SpinUp(kStormNodes);
  if (reached) {
    Rng rng(seed);
    run.Prepare(workload::CycleSchedule(StormShapes(), kStormJobs, rng));
    // The storm: the first kSlowNodes leases drop to 1/kSlowFactor compute
    // speed for the rest of the run. Built in code (not a file) so the
    // experiment is cwd-independent; the committed
    // scenarios/slow_node_storm.txt drives the same grammar in check.sh.
    fault::Scenario storm;
    storm.name = "slow-node-storm";
    for (int i = 0; i < kSlowNodes; ++i) {
      fault::TimedAction timed;
      timed.at = kSlowAt;
      timed.action.kind = fault::ActionKind::kSlowNode;
      timed.action.node = i;
      timed.action.value = kSlowFactor;
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
      GoodputPerSlotHour(tasks_done, kStormNodes,
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

/// One jitter palette of the frontier: its phi row and deadline rows.
struct Palette {
  std::string phi = {};
  std::vector<std::string> deadlines = {};
};

/// `metric`'s mean over `config`'s seeds, +inf when a seed did not
/// measure it: a detection that never happened counts as never, so one
/// missed seed cannot make a detector look faster.
double MeanOrNever(const SweepSpec& spec, const SweepResult& sweep,
                   std::size_t config, const char* metric) {
  const MetricSummary& summary = sweep.Summary(config, metric);
  if (summary.stats.count() < spec.seeds.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return summary.stats.mean();
}

/// "<mean> (seed 11: v, seed 23: v, ...)": a mean-gate message names the
/// seed that moved it.
std::string MeanWithSeeds(const SweepSpec& spec, const SweepResult& sweep,
                          std::size_t config, const char* metric) {
  std::string text = Printf("%g (", MeanOrNever(spec, sweep, config, metric));
  for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
    if (s) text += ", ";
    text += Printf("seed %llu: %g",
                   static_cast<unsigned long long>(spec.seeds[s]),
                   sweep.run(config, s, spec.seeds.size()).Metric(metric));
  }
  return text + ")";
}

void FrontierGate(const Palette& palette, const SweepSpec& spec,
                  const SweepResult& sweep,
                  std::vector<std::string>& failures) {
  const std::size_t phi = ConfigIndex(spec, palette.phi);
  if (phi == spec.configs) return;
  const double phi_fp = sweep.Mean(phi, "false_suspects");
  const double phi_detect = MeanOrNever(spec, sweep, phi, "detect_all_s");
  if (std::isinf(phi_detect)) {
    failures.push_back(palette.phi + ": phi never declared the killed site: "
                       "detect_all_s mean " +
                       MeanWithSeeds(spec, sweep, phi, "detect_all_s"));
  }
  int dominated_by_phi = 0;
  for (const std::string& label : palette.deadlines) {
    const std::size_t dl = ConfigIndex(spec, label);
    const double fp = sweep.Mean(dl, "false_suspects");
    const double detect = MeanOrNever(spec, sweep, dl, "detect_all_s");
    // The adaptive point must strictly dominate the clean end of the
    // deadline frontier: any deadline as quiet as phi must be slower.
    if (fp <= phi_fp && detect <= phi_detect) {
      failures.push_back(
          label + " dominates " + palette.phi + ": false_suspects mean " +
          MeanWithSeeds(spec, sweep, dl, "false_suspects") +
          Printf(" <= %g, detect_all_s mean ", phi_fp) +
          MeanWithSeeds(spec, sweep, dl, "detect_all_s") +
          Printf(" <= %g", phi_detect));
    }
    if (phi_fp <= fp && phi_detect < detect) ++dominated_by_phi;
  }
  if (dominated_by_phi == 0) {
    failures.push_back(palette.phi +
                       " dominates no deadline point: false_suspects mean " +
                       MeanWithSeeds(spec, sweep, phi, "false_suspects") +
                       ", detect_all_s mean " +
                       MeanWithSeeds(spec, sweep, phi, "detect_all_s"));
  }
}

Plan GrayPlan(const Setup& setup) {
  // The phi row's expiry is its bootstrap budget (and the floor/cap
  // anchor). threshold=48 (z ~= 14.5) keeps the learned budget above the
  // worst window-boundary silence the correlated jitter model produces
  // even when the variance EWMA dips through a quiet stretch, and
  // window=1024 makes those dips shallow; min_samples=48 spans several
  // 16-beat jitter windows so the adaptive handoff never happens on a
  // zero-variance intra-window history.
  struct Detector {
    const char* name;
    const char* spec;
    SimDuration expiry;
  };
  const Detector detectors[] = {
      {"dl30", "deadline", 30 * kSecond},
      {"dl90", "deadline", 90 * kSecond},
      {"dl240", "deadline", 240 * kSecond},
      {"phi", "phi:threshold=48;min_samples=48;window=1024", 60 * kSecond},
  };
  // The noisy palette is the --fast one.
  struct Jitter {
    const char* tag;
    SimDuration jitter;
    bool fast;
  };
  const Jitter jitters[] = {{"j45", 45 * kSecond, true},
                            {"j6", 6 * kSecond, false}};
  Plan plan;
  std::vector<Palette> palettes;
  for (const Jitter& j : jitters) {
    Palette palette;
    for (const Detector& det : detectors) {
      const std::string label = std::string(j.tag) + "-" + det.name;
      Config config{.label = label,
                    .fast = j.fast,
                    .checks = {Eq("reached_target", 1)},
                    .run = [&setup, det, jitter = j.jitter](
                               std::uint64_t seed) {
                      return RunGrayDetection(det.spec, det.expiry, jitter,
                                              seed, setup.opts.hog);
                    }};
      if (std::string_view(det.name) == "phi") {
        config.checks.push_back(Eq("false_suspects", 0));
        palette.phi = label;
      } else {
        palette.deadlines.push_back(label);
      }
      plan.configs.push_back(std::move(config));
    }
    palettes.push_back(std::move(palette));
  }
  // The frontier rows' detector overrides --detector; the storm rows take
  // it like every other flag.
  for (const bool quarantine : {false, true}) {
    plan.configs.push_back(
        {.label = quarantine ? "storm-quarantine" : "storm-bare",
         .checks = {Eq("reached_target", 1), Eq("audit_violations", 0)},
         .run = [&setup, quarantine](std::uint64_t seed) {
           return RunGrayStorm(quarantine, seed, setup.opts.hog);
         }});
  }
  plan.columns = {
      {.header = "false suspects", .metric = "false_suspects", .decimals = 1},
      {.header = "detect all (s)", .metric = "detect_all_s", .decimals = 1},
      {.header = "goodput (tasks/slot-h)", .metric = "goodput_per_slot_hour",
       .decimals = 1},
      {.header = "audit violations", .metric = "audit_violations"}};
  for (const Palette& palette : palettes) {
    plan.relations.push_back(
        [palette](const SweepSpec& spec, const SweepResult& sweep,
                  std::vector<std::string>& failures) {
          FrontierGate(palette, spec, sweep, failures);
        });
  }
  // Quarantine must buy goodput.
  plan.relations.push_back([](const SweepSpec& spec, const SweepResult& sweep,
                              std::vector<std::string>& failures) {
    const std::size_t bare = ConfigIndex(spec, "storm-bare");
    const std::size_t quarantined = ConfigIndex(spec, "storm-quarantine");
    if (sweep.Mean(quarantined, "goodput_per_slot_hour") >
        sweep.Mean(bare, "goodput_per_slot_hour")) {
      return;
    }
    failures.push_back(
        "storm-quarantine goodput_per_slot_hour mean " +
        MeanWithSeeds(spec, sweep, quarantined, "goodput_per_slot_hour") +
        " did not beat storm-bare's " +
        MeanWithSeeds(spec, sweep, bare, "goodput_per_slot_hour"));
  });
  return plan;
}

}  // namespace

Metrics RunScaleWorkload(const ScaleConfig& config, std::uint64_t seed,
                         HogRunOptions options) {
  const auto wall_start = std::chrono::steady_clock::now();

  hog::HogConfig hog;
  const int pool = std::max(1, config.nodes / std::max(1, config.sites));
  hog.sites = StableSites(config.sites, pool);

  options.audit = true;
  options.audit_fail_fast = true;
  // A full audit pass is O(cluster); at 10k nodes the default 30 s
  // cadence would dominate the run, so scale runs audit every 10 min
  // plus once at the end.
  options.audit_period = 10 * kMinute;
  HogRun run(seed, std::move(hog), options);
  const bool reached = run.SpinUp(config.nodes);
  if (reached) {
    Rng rng(seed);
    run.Prepare(workload::CycleSchedule(SizeClasses(), config.jobs, rng));
    run.Submit();
    run.Run();
  }
  const HogRunResult result = run.Finish();
  const sim::Simulation& sim = run.cluster().sim();

  Metrics metrics;
  // Deterministic rows first: identical for (config, seed) on any
  // machine and any --threads, so gates and determinism tests can key on
  // them alone.
  metrics.emplace_back("reached_target", reached ? 1.0 : 0.0);
  metrics.emplace_back("jobs_succeeded", result.workload.succeeded);
  metrics.emplace_back("jobs_failed", result.workload.failed);
  metrics.emplace_back("response_s", result.workload.response_time_s);
  metrics.emplace_back("sim_hours", ToSeconds(sim.now()) / 3600.0);
  metrics.emplace_back("executed_events",
                       static_cast<double>(sim.executed()));
  metrics.emplace_back("cancelled_events",
                       static_cast<double>(sim.cancelled()));
  metrics.emplace_back("audit_violations",
                       static_cast<double>(result.audit_violations));

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  metrics.emplace_back("host.wall_s", wall_s);
  metrics.emplace_back("host.peak_rss_mib", PeakRssMib());
  metrics.emplace_back(
      "host.events_per_sec",
      wall_s > 0 ? static_cast<double>(sim.executed()) / wall_s
                 : std::numeric_limits<double>::quiet_NaN());
  return metrics;
}

Metrics RunSchedWorkload(const SchedRunConfig& config, std::uint64_t seed,
                         HogRunOptions options) {
  options.audit = true;
  HogRun run(seed, {}, options);
  const bool reached = run.SpinUp(config.nodes);
  if (reached) {
    Rng rng(seed);
    run.Prepare(workload::CycleSchedule(Personas(), config.jobs, rng));
    fault::Scenario chaos = fault::RandomScenario(kSchedChaosSeed);
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

extern const Experiment kSched = {
    .name = "sched",
    .title = "Scheduler head-to-head: fifo / fair / atlas / capacity",
    .takes_scenario = false,
    .plan = SchedPlan,
};

extern const Experiment kScale = {
    .name = "scale",
    .title = "Scale grid: nodes x jobs up to 10k glideins, 100 sites",
    .takes_scenario = false,
    .plan = ScalePlan,
};

extern const Experiment kGray = {
    .name = "gray",
    .title = "Gray failures: detector frontier and quarantine under a storm",
    .takes_scenario = false,
    .plan = GrayPlan,
};

}  // namespace hogsim::exp
