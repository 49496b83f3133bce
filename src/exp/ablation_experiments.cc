// The design choices the paper asserts (§III.B, §VI) as hogbench
// ablations: each sweeps one knob across seeds on a HOG deployment.
#include <cstdio>

#include "src/exp/experiments.h"

namespace hogsim::exp {

namespace {

// ---------------------------------------------------------------------------
// Delay scheduling (Zaharia et al. — reference [3] of the paper, and the
// source of its workload) on HOG. HOG's replication factor 10 already buys
// excellent locality; delay scheduling is the scheduler-side alternative.
// This sweeps both levers: FIFO vs FIFO+delay at replication 3 and 10.

struct DelayCase {
  const char* label;
  const char* name;
  int replication;
  SimDuration wait;
};

constexpr DelayCase kDelayCases[] = {
    {"rep3_fifo", "rep 3, plain FIFO", 3, 0},
    {"rep3_delay10", "rep 3, FIFO + delay 10 s", 3, 10 * kSecond},
    {"rep10_fifo", "rep 10, plain FIFO (HOG)", 10, 0},
    {"rep10_delay10", "rep 10, FIFO + delay 10 s", 10, 10 * kSecond},
};

Metrics RunDelay(const DelayCase& c, std::uint64_t seed, const Setup& setup) {
  hog::HogConfig config;
  config.hdfs.default_replication = c.replication;
  config.mr.locality_wait_node = c.wait;
  config.mr.locality_wait_rack = c.wait;
  HogRun run(seed, config, setup.opts.hog);
  run.RequireSpinUp(60);
  run.Prepare(FacebookSchedule(seed, setup.opts.fast));
  run.Submit(&setup.scenario);
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

Plan DelayPlan(const Setup& setup) {
  Plan plan;
  for (const DelayCase& c : kDelayCases) {
    plan.configs.push_back({.label = c.label, .name = c.name,
                            .run = [&setup, &c](std::uint64_t seed) {
                              return RunDelay(c, seed, setup);
                            }});
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "node-local maps", .metric = "local_frac", .decimals = 1,
       .scale = 100, .unit = "%"},
      {.header = "remote input (GiB)", .metric = "remote_input_gib",
       .decimals = 1}};
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
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
    const auto local = [&](const char* label) {
      return ConfigMean(spec, sweep, label, "local_frac");
    };
    const auto response = [&](const char* label) {
      return ConfigMean(spec, sweep, label, "response_s");
    };
    std::printf("Delay scheduling lifts locality: %s; but costs response "
                "under churn: %s\n",
                YesNo(local("rep3_delay10") > local("rep3_fifo") &&
                      local("rep10_delay10") > local("rep10_fifo")),
                YesNo(response("rep3_delay10") > response("rep3_fifo")));
  };
  return plan;
}

// ---------------------------------------------------------------------------
// §III.B — failure-detection latency. HOG lowers the heartbeat recheck
// (namenode) and tracker expiry (jobtracker) from the traditional ~15
// minutes to 30 seconds. Under grid churn, slow detection leaves dead nodes
// carrying phantom replicas and assigned-but-dead tasks for many minutes.

struct HeartbeatCase {
  const char* label;
  const char* name;
  SimDuration recheck;
};

constexpr HeartbeatCase kHeartbeatCases[] = {
    {"recheck_30s", "HOG (30 s)", 30 * kSecond},
    {"recheck_2min", "2 min", 2 * kMinute},
    {"recheck_15min", "traditional (15 min)", 15 * kMinute},
};

Metrics RunHeartbeat(const HeartbeatCase& c, std::uint64_t seed,
                     const Setup& setup) {
  hog::HogConfig config;
  config.hdfs.heartbeat_recheck = config.mr.tracker_expiry = c.recheck;
  HogRun run(seed, config, setup.opts.hog);
  run.RequireSpinUp(60);
  run.Prepare(FacebookSchedule(seed, setup.opts.fast));
  run.Submit(&setup.scenario);
  run.Run();
  const HogRunResult result = run.Finish();
  return {{"response_s", result.workload.response_time_s},
          {"jobs_failed", static_cast<double>(result.workload.failed)},
          {"maps_reexecuted", static_cast<double>(result.maps_reexecuted)}};
}

Plan HeartbeatPlan(const Setup& setup) {
  Plan plan;
  for (const HeartbeatCase& c : kHeartbeatCases) {
    plan.configs.push_back({.label = c.label, .name = c.name,
                            .run = [&setup, &c](std::uint64_t seed) {
                              return RunHeartbeat(c, seed, setup);
                            }});
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "ci95", .metric = "response_s", .stat = Stat::kCi95},
      {.header = "failed jobs", .metric = "jobs_failed", .decimals = 1},
      {.header = "maps re-executed", .metric = "maps_reexecuted"}};
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
    std::printf(
        "\nExpected shape: with 15-minute detection, every preemption parks "
        "task attempts and replicas on a dead node for up to 15 minutes "
        "before recovery starts, stretching (or wedging) the workload; 30 s "
        "detection recovers almost immediately.\n");
    const auto response = [&](const char* label) {
      return ConfigMean(spec, sweep, label, "response_s");
    };
    std::printf("30 s detection fastest: %s\n",
                YesNo(response("recheck_30s") <= response("recheck_2min") &&
                      response("recheck_30s") <= response("recheck_15min")));
  };
  return plan;
}

// ---------------------------------------------------------------------------
// §VI (future work, implemented here as an extension): running a
// configurable number of copies of every task and taking the fastest. The
// paper proposes this to mask node loss; the cost is extra slot
// consumption. Each copy count is a config.

constexpr int kMulticopyNodes = 240;

Metrics RunMulticopy(int copies, std::uint64_t seed, const Setup& setup) {
  hog::HogConfig config;
  config.mr.task_copies = copies;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 3600.0;  // volatile grid: where §VI should help
    site.burst_interval_s = 900.0;
    site.burst_fraction = 0.15;
  }
  HogRun run(seed, config, setup.opts.hog);
  // Over-request: under churn, running nodes settle below the lease
  // target (replacements sit in remote batch queues), so keep extra
  // pressure — standard GlideinWMS practice. SpinUp keeps the larger
  // standing request.
  run.cluster().RequestNodes(kMulticopyNodes * 115 / 100);
  run.RequireSpinUp(kMulticopyNodes);
  // Bins 1-4 (76 jobs): N-copy reduces multiply WAN shuffle N-fold, so the
  // heaviest bins would congest the sweep's wall clock without changing
  // the conclusion.
  run.Prepare(FacebookSchedule(seed, setup.opts.fast, 4));
  run.Submit(&setup.scenario);
  // Bounded deadline: a blacklist-wedged job should cap the run, not
  // stretch it to the global limit.
  const auto result = run.Run(4 * kHour);
  run.Finish();
  RunningStats per_job;
  for (double r : result.job_response_s) per_job.Add(r);
  return {{"response_s", result.response_time_s},
          {"mean_job_latency_s", per_job.mean()},
          {"attempts_launched", static_cast<double>(
                           run.cluster().jobtracker().attempts_launched())},
          {"jobs_failed", static_cast<double>(result.failed)}};
}

Plan MulticopyPlan(const Setup& setup) {
  Plan plan;
  for (const int copies : {1, 2, 3}) {
    plan.configs.push_back(
        {.label = "copies" + std::to_string(copies),
         .run = [&setup, copies](std::uint64_t seed) {
           return RunMulticopy(copies, seed, setup);
         }});
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "mean job latency (s)", .metric = "mean_job_latency_s"},
      {.header = "attempts launched", .metric = "attempts_launched"},
      {.header = "failed jobs", .metric = "jobs_failed", .decimals = 1}};
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
    std::printf(
        "\nThe paper hypothesizes (§VI) that redundant copies let HOG finish "
        "faster when nodes go missing. The measured trade-off: copies mask "
        "preemption-induced re-execution, but they also multiply slot, "
        "shuffle, and WAN demand — so the benefit only materializes while "
        "the extra copies stay effectively free. Attempts grow ~linearly "
        "with N either way.\n");
    const auto response = [&](const char* label) {
      return ConfigMean(spec, sweep, label, "response_s");
    };
    const double one = response("copies1"), two = response("copies2");
    std::printf("Measured: second copy %s response (%.0f -> %.0f s); third "
                "copy adds %.0f s.\n",
                two < one ? "improves" : "does not improve", one, two,
                response("copies3") - two);
  };
  return plan;
}

// ---------------------------------------------------------------------------
// §III.B.1 — replication factor under correlated preemption. The paper
// raises HDFS replication from 3 to 10 because simultaneous preemptions
// routinely outrun re-replication. This sweeps the replication factor under
// bursty preemption and reports data availability and workload response.

Metrics RunReplication(int replication, std::uint64_t seed,
                       const Setup& setup) {
  hog::HogConfig config;
  config.hdfs.default_replication = replication;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 5400.0;
    site.burst_interval_s = 900.0;  // simultaneous preemptions are common
    site.burst_fraction = 0.15;
  }
  HogRun run(seed, config, setup.opts.hog);
  run.RequireSpinUp(60);
  run.Prepare(FacebookSchedule(seed, setup.opts.fast));
  run.Submit(&setup.scenario);
  const auto result = run.Run();
  run.Finish();
  const hdfs::Namenode& nn = run.cluster().namenode();
  return {{"response_s", result.response_time_s},
          {"jobs_failed", static_cast<double>(result.failed)},
          {"missing_blocks", static_cast<double>(nn.missing_blocks())},
          {"replications", static_cast<double>(nn.replications_completed())},
          {"replication_gib", static_cast<double>(nn.replication_bytes()) /
                                  static_cast<double>(kGiB)}};
}

Plan ReplicationPlan(const Setup& setup) {
  Plan plan;
  for (const int factor : {2, 3, 10}) {
    plan.configs.push_back(
        {.label = "rep" + std::to_string(factor),
         .run = [&setup, factor](std::uint64_t seed) {
           return RunReplication(factor, seed, setup);
         }});
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "failed jobs", .metric = "jobs_failed", .decimals = 1},
      {.header = "missing blocks", .metric = "missing_blocks", .decimals = 1},
      {.header = "re-replications", .metric = "replications"},
      {.header = "re-repl (GiB)", .metric = "replication_gib",
       .decimals = 1}};
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
    std::printf(
        "\nExpected shape: low replication risks missing blocks / failed or "
        "stalled jobs when bursts outrun the replication monitor; "
        "replication 10 keeps data available at the cost of heavier "
        "re-replication traffic (the paper's trade-off: 'too many replicas "
        "would impose extra overhead ... too few would cause frequent data "
        "failures').\n");
    const auto missing = [&](const char* label) {
      return ConfigMean(spec, sweep, label, "missing_blocks");
    };
    std::printf("Replication 10 loses no more data than 2: %s\n",
                YesNo(missing("rep10") <= missing("rep2")));
  };
  return plan;
}

// ---------------------------------------------------------------------------
// §VI (future work, implemented as an extension): PKI encryption of HOG's
// HTTP communication. The paper plans to encrypt RPC to prevent
// man-in-the-middle attacks on the open grid; this measures what that
// protection would cost on the evaluation workload. The slowdown column
// divides each mean by the plain-HTTP config's.

struct SecurityCase {
  const char* label;
  const char* name;
  SimDuration handshake;
  double overhead;
};

constexpr SecurityCase kSecurityCases[] = {
    {"plain", "plain HTTP (paper's current HOG)", 0, 0.0},
    {"pki_moderate", "PKI: +5 ms handshake, +10% cipher cost",
     5 * kMillisecond, 0.10},
    {"pki_worst", "PKI worst-case: +20 ms, +25%", 20 * kMillisecond, 0.25},
};

Metrics RunSecurity(const SecurityCase& c, std::uint64_t seed,
                    const Setup& setup) {
  hog::HogConfig config;
  config.net.crypto_latency = c.handshake;
  config.net.crypto_byte_overhead = c.overhead;
  HogRun run(seed, config, setup.opts.hog);
  run.RequireSpinUp(60);
  run.Prepare(FacebookSchedule(seed, setup.opts.fast));
  run.Submit(&setup.scenario);
  run.Run();
  return {{"response_s", run.Finish().workload.response_time_s}};
}

Plan SecurityPlan(const Setup& setup) {
  Plan plan;
  for (const SecurityCase& c : kSecurityCases) {
    plan.configs.push_back({.label = c.label, .name = c.name,
                            .run = [&setup, &c](std::uint64_t seed) {
                              return RunSecurity(c, seed, setup);
                            }});
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "ci95", .metric = "response_s", .stat = Stat::kCi95},
      {.header = "slowdown", .metric = "response_s", .stat = Stat::kRatio,
       .of = "plain", .decimals = 2, .unit = "x"}};
  plan.notes = [](const SweepSpec&, const SweepResult&) {
    std::printf(
        "\nExpected shape: moderate PKI costs add single-digit percent to "
        "the workload response (the WAN round trips and cipher overhead sit "
        "mostly off the critical path), supporting §VI's plan that securing "
        "HOG is affordable. Aggressive overheads start to show in the "
        "shuffle-heavy phase.\n");
  };
  return plan;
}

// ---------------------------------------------------------------------------
// §III.B.1 — site awareness. HOG extends rack awareness to sites so that
// replicas spread across administrative failure domains. This kills an
// entire site mid-workload and compares site-aware placement against flat
// (topology-blind) placement at equal replication: 4, enough replicas for
// placement quality to matter.

Metrics RunSiteAwareness(bool site_aware, std::uint64_t seed,
                         const Setup& setup) {
  hog::HogConfig config;
  config.site_awareness = site_aware;
  config.hdfs.default_replication = 4;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 1e9;  // isolate the site-outage effect
    site.burst_interval_s = 0;
  }
  HogRun run(seed, config, setup.opts.hog);
  run.RequireSpinUp(60);

  run.Prepare(FacebookSchedule(seed, setup.opts.fast));
  run.Submit(&setup.scenario);
  // Whole-site outage ("a core network component failure, or a large
  // power outage") 5 minutes into the workload.
  hog::HogCluster& cluster = run.cluster();
  cluster.sim().ScheduleAfter(5 * kMinute, [&cluster] {
    cluster.grid().PreemptSiteFraction(0, 1.0);
  });
  const auto result = run.Run();
  run.Finish();
  long long data_local = 0, remote = 0;
  for (std::size_t j = 0; j < cluster.jobtracker().job_count(); ++j) {
    const auto& job = cluster.jobtracker().job(static_cast<mr::JobId>(j));
    data_local += job.data_local_maps;
    remote += job.remote_maps;
  }
  return {{"response_s", result.response_time_s},
          {"jobs_failed", static_cast<double>(result.failed)},
          {"missing_blocks",
           static_cast<double>(cluster.namenode().missing_blocks())},
          {"data_local_maps", static_cast<double>(data_local)},
          {"remote_maps", static_cast<double>(remote)}};
}

Plan SiteAwarenessPlan(const Setup& setup) {
  Plan plan;
  for (const bool site_aware : {true, false}) {
    plan.configs.push_back(
        {.label = site_aware ? "site_aware" : "flat",
         .run = [&setup, site_aware](std::uint64_t seed) {
           return RunSiteAwareness(site_aware, seed, setup);
         }});
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "failed jobs", .metric = "jobs_failed", .decimals = 1},
      {.header = "missing blocks", .metric = "missing_blocks", .decimals = 1},
      {.header = "node-local maps", .metric = "data_local_maps"},
      {.header = "remote maps", .metric = "remote_maps"}};
  plan.notes = [](const SweepSpec& spec, const SweepResult& sweep) {
    std::printf(
        "\nExpected shape: site-aware placement guarantees replicas outside "
        "the failed site, so no blocks go missing; blind placement can lose "
        "all copies of a block to one site (paper: sites are the natural "
        "failure domain of the grid).\n");
    const auto missing = [&](const char* label) {
      return ConfigMean(spec, sweep, label, "missing_blocks");
    };
    std::printf("Site awareness avoids data loss at least as well as flat: "
                "%s\n",
                YesNo(missing("site_aware") <= missing("flat")));
  };
  return plan;
}

}  // namespace

extern const Experiment kAblationDelayScheduling = {
    .name = "ablation_delay_scheduling",
    .title = "Ablation: delay scheduling vs replication as locality levers",
    .fast_seeds = FastSeeds::kFirst,
    .plan = DelayPlan,
};

extern const Experiment kAblationHeartbeat = {
    .name = "ablation_heartbeat",
    .title = "Ablation (§III.B): failure-detection timeout under churn",
    .fast_seeds = FastSeeds::kFirst,
    .plan = HeartbeatPlan,
};

extern const Experiment kAblationMulticopy = {
    .name = "ablation_multicopy",
    .title = "Ablation (§VI): N task copies on a volatile grid",
    .fast_seeds = FastSeeds::kFirst,
    .plan = MulticopyPlan,
};

extern const Experiment kAblationReplication = {
    .name = "ablation_replication",
    .title = "Ablation (§III.B.1): replication factor under bursty preemption",
    .fast_seeds = FastSeeds::kFirst,
    .plan = ReplicationPlan,
};

extern const Experiment kAblationSecurity = {
    .name = "ablation_security",
    .title = "Ablation (§VI): the cost of PKI-encrypted communication",
    .fast_seeds = FastSeeds::kFirst,
    .plan = SecurityPlan,
};

extern const Experiment kAblationSiteAwareness = {
    .name = "ablation_site_awareness",
    .title = "Ablation (§III.B.1): site awareness under a whole-site outage",
    .fast_seeds = FastSeeds::kFirst,
    .plan = SiteAwarenessPlan,
};

}  // namespace hogsim::exp
