// Faults and self-healing as hogbench experiments: the scenario storm, the
// chaos soak, the replication ladder and the topology zoo.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/experiments.h"
#include "src/fault/random_scenario.h"

namespace hogsim::exp {

namespace {

constexpr double kGiBDouble = 1024.0 * 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// scenario_storm: the Facebook workload on a 55-node HOG deployment under a
// declarative fault scenario (src/fault). Without --scenario this is a
// clean control run; with one (e.g. scenarios/site_storm.txt) the same
// faults hit every seed at the same workload-relative instants, so the
// sweep measures recovery cost, not luck. The sweep is byte-deterministic
// across --threads settings: scenarios are armed per-run on that run's own
// Simulation and draw no run RNG.

Plan StormPlan(const Setup& setup) {
  Plan plan;
  // --audit arms the fail-fast invariant auditor: the storm then proves not
  // just that jobs survive, but that every layer stays consistent.
  // Every scheduled fault must land: a committed scenario whose actions
  // stop reaching their targets fails the gate.
  plan.configs.push_back(
      {.label = "hog55",
       .checks = {Eq("faults_skipped", 0)},
       .run = [&setup](std::uint64_t seed) -> Metrics {
         const auto result =
             RunHogWorkload(55, seed, {}, &setup.scenario, setup.opts.hog);
         return {{"response_s", result.workload.response_time_s},
                 {"jobs_failed", static_cast<double>(result.workload.failed)},
                 {"preemptions", static_cast<double>(result.preemptions)},
                 {"maps_reexecuted",
                  static_cast<double>(result.maps_reexecuted)},
                 {"faults_injected",
                  static_cast<double>(result.faults_injected)},
                 {"faults_skipped",
                  static_cast<double>(result.faults_skipped)}};
       }});
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "failed jobs", .metric = "jobs_failed"},
      {.header = "preemptions", .metric = "preemptions"},
      {.header = "maps re-executed", .metric = "maps_reexecuted"},
      {.header = "faults injected", .metric = "faults_injected"},
      {.header = "faults skipped", .metric = "faults_skipped"}};
  plan.notes = [](const SweepSpec&, const SweepResult&) {
    std::printf(
        "\nReading the table: `faults injected` counts scenario actions that "
        "actually landed (see the fault.* counters in --metrics-out for the "
        "per-kind split) and `faults skipped` those that reached no target "
        "(gated at 0); preemptions and re-executed maps show what the "
        "storm cost, response what the recovery machinery bought back.\n");
  };
  return plan;
}

// ---------------------------------------------------------------------------
// soak: random scenario x seed matrices with the invariant auditor armed —
// the acceptance harness for the self-healing stack. Each config is one
// seeded fault::RandomScenario (survivable palette: partial preemptions,
// zombies, freezes, partitions, bounded master blackouts, plus the gray
// faults — slow nodes, delayed heartbeats, disk stalls); each run replays
// the Facebook workload on a 55-node HOG deployment under that scenario,
// then keeps the cluster alive until the under-replication queue drains.
// Every run must be violation-free, loss-free and fully terminated, and
// every fault its scenario schedules must land. --fast runs the first 3 of
// the 25 scenarios on one seed.

constexpr std::size_t kSoakScenarios = 25;
constexpr std::size_t kSoakFastScenarios = 3;

Plan SoakPlan(const Setup& setup) {
  // Scenario seeds are fixed (not tied to sweep seeds): scenario k is the
  // same chaos schedule on every machine and under --seeds overrides. The
  // gray palette rides along: the self-healing contract must hold when
  // faults degrade nodes instead of killing them.
  fault::RandomScenarioOptions chaos;
  chaos.gray = true;
  // The auditor is always armed (violations are a soak row); --audit
  // makes it fail fast.
  HogRunOptions ropts = setup.opts.hog;
  ropts.audit = true;
  ropts.drain_deadline = 2 * kHour;
  Plan plan;
  for (std::size_t k = 0; k < kSoakScenarios; ++k) {
    plan.configs.push_back(
        {.label = "chaos" + std::to_string(k),
         .fast = k < kSoakFastScenarios,
         .checks = {Eq("violations", 0), Eq("outputs_lost", 0),
                    Eq("all_terminated", 1), Eq("faults_skipped", 0)},
         .run = [scenario = fault::RandomScenario(1000 + k, chaos),
                 ropts](std::uint64_t seed) -> Metrics {
           const auto result = RunHogWorkload(55, seed, {}, &scenario, ropts);
           const int jobs = result.workload.succeeded + result.workload.failed;
           return {
               {"violations", static_cast<double>(result.audit_violations)},
               {"outputs_lost", static_cast<double>(result.outputs_lost)},
               {"all_terminated", result.workload.completed ? 1.0 : 0.0},
               {"jobs_survived",
                static_cast<double>(result.workload.succeeded)},
               {"jobs_failed", static_cast<double>(result.workload.failed)},
               {"jobs_terminated", static_cast<double>(jobs)},
               {"time_to_full_repl_s", result.time_to_full_replication_s},
               {"fully_replicated", result.fully_replicated ? 1.0 : 0.0},
               {"response_s", result.workload.response_time_s},
               {"faults_injected",
                static_cast<double>(result.faults_injected)},
               {"faults_skipped",
                static_cast<double>(result.faults_skipped)}};
         }});
  }
  return plan;
}

// ---------------------------------------------------------------------------
// repl: the availability-targeted replication controller
// (src/hdfs/repl_controller.h) vs a fixed-RF ladder {3, 5, 10} under the
// chaos-soak palette. Every config replays the Facebook workload on a
// 55-node HOG deployment under the same fixed random chaos scenario (the
// first scenario of the soak corpus), with the invariant auditor armed and
// a post-workload healing drain. Fixed-RF configs set HOG's flat
// replication; adaptive configs keep the paper's placement width of 10 but
// run the controller at an availability target. Gates:
//   - no auditor violation and every job terminated on ANY config,
//   - no lost committed output on rf10 or any adaptive config (the low
//     flat rungs rf3/rf5 are allowed to lose data — they are the cost
//     ladder that motivates the controller, and their losses are
//     reported),
//   - per seed, every adaptive config stores fewer bytes than flat RF=10.
// rf10 and adaptive999 lead and are the --fast pair the headline compares;
// --repl-target=A adds one adaptive-custom rung to the full ladder.

struct ReplConfig {
  std::string label;
  int fixed_rf = 10;  // hdfs.default_replication (placement width)
  double target = 0;  // > 0: adaptive controller at this availability
  bool fast = false;

  // Durability is only promised where redundancy is adequate: the full
  // paper RF or the availability-targeted controller.
  bool durability_gated() const { return target > 0 || fixed_rf >= 10; }
};

Metrics RunRepl(const ReplConfig& cfg, std::uint64_t seed,
                const fault::Scenario& scenario, HogRunOptions ropts) {
  hog::HogConfig hog;
  hog.hdfs.default_replication = cfg.fixed_rf;
  ropts.repl_target = cfg.target;
  const auto result = RunHogWorkload(55, seed, hog, &scenario, ropts);
  const double logical =
      static_cast<double>(std::max<Bytes>(result.bytes_logical, 1));
  return {{"violations", static_cast<double>(result.audit_violations)},
          {"outputs_lost", static_cast<double>(result.outputs_lost)},
          {"all_terminated", result.workload.completed ? 1.0 : 0.0},
          {"bytes_stored_gib",
           static_cast<double>(result.bytes_stored) / kGiBDouble},
          {"bytes_logical_gib",
           static_cast<double>(result.bytes_logical) / kGiBDouble},
          {"effective_rf", static_cast<double>(result.bytes_stored) / logical},
          {"repair_gib", static_cast<double>(result.repair_bytes) / kGiBDouble},
          {"jobs_survived", static_cast<double>(result.workload.succeeded)},
          {"jobs_failed", static_cast<double>(result.workload.failed)},
          {"response_s", result.workload.response_time_s},
          {"time_to_full_repl_s", result.time_to_full_replication_s},
          {"fully_replicated", result.fully_replicated ? 1.0 : 0.0},
          {"targets_raised", static_cast<double>(result.repl_targets_raised)},
          {"targets_lowered",
           static_cast<double>(result.repl_targets_lowered)},
          {"excess_removed", static_cast<double>(result.repl_excess_removed)}};
}

Plan ReplPlan(const Setup& setup) {
  std::vector<ReplConfig> ladder = {
      {"rf10", 10, 0, true},
      {"adaptive999", 10, 0.999, true},
      {"rf3", 3, 0},
      {"rf5", 5, 0},
      {"adaptive9999", 10, 0.9999},
  };
  if (setup.opts.hog.repl_target > 0) {
    ladder.push_back({"adaptive-custom", 10, setup.opts.hog.repl_target});
  }
  // The same chaos schedule for every (config, seed) run: scenario 1000 of
  // the soak corpus, so the ladder differs only in replication policy. The
  // auditor is always armed (violations are gated); --audit makes it fail
  // fast. The repl target is this experiment's per-config knob.
  HogRunOptions base = setup.opts.hog;
  base.audit = true;
  base.drain_deadline = 2 * kHour;
  const auto chaos = std::make_shared<const fault::Scenario>(
      fault::RandomScenario(1000));
  Plan plan;
  std::vector<std::string> adaptive;
  for (const ReplConfig& cfg : ladder) {
    Config config{.label = cfg.label,
                  .fast = cfg.fast,
                  .checks = {Eq("violations", 0), Eq("all_terminated", 1)},
                  .run = [cfg, chaos, base](std::uint64_t seed) {
                    return RunRepl(cfg, seed, *chaos, base);
                  }};
    if (cfg.durability_gated()) config.checks.push_back(Eq("outputs_lost", 0));
    plan.configs.push_back(std::move(config));
    if (cfg.target > 0) adaptive.push_back(cfg.label);
  }
  // The cheap flat rungs exist to lose data: the table reports each seed's
  // losses, and the gates leave them be.
  plan.columns = {
      {.header = "outputs lost", .metric = "outputs_lost",
       .stat = Stat::kSeeds},
      {.header = "stored (GiB)", .metric = "bytes_stored_gib"},
      {.header = "stored vs rf10", .metric = "bytes_stored_gib",
       .stat = Stat::kRatio, .of = "rf10", .decimals = 2, .unit = "x"},
      {.header = "repair (GiB)", .metric = "repair_gib"},
      {.header = "to full repl (s)", .metric = "time_to_full_repl_s"},
      {.header = "vs rf10", .metric = "time_to_full_repl_s",
       .stat = Stat::kRatio, .of = "rf10", .decimals = 2, .unit = "x"},
      {.header = "jobs failed", .metric = "jobs_failed", .decimals = 1},
      {.header = "response (s)", .metric = "response_s"}};
  // The storage claim, per seed: every adaptive config must store fewer
  // bytes than flat RF=10 under the identical chaos schedule.
  plan.relations.push_back([adaptive](const SweepSpec& spec,
                                      const SweepResult& sweep,
                                      std::vector<std::string>& failures) {
    for (const std::uint64_t seed : spec.seeds) {
      const RunRecord* rf10 = FindRun(spec, sweep, "rf10", seed);
      if (rf10 == nullptr) continue;
      const double rf10_stored = rf10->Metric("bytes_stored_gib");
      for (const std::string& label : adaptive) {
        const RunRecord* run = FindRun(spec, sweep, label, seed);
        if (run == nullptr) continue;
        const double stored = run->Metric("bytes_stored_gib");
        if (stored < rf10_stored) continue;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s seed %llu: bytes_stored_gib %.3f not below rf10's "
                      "%.3f",
                      label.c_str(), static_cast<unsigned long long>(seed),
                      stored, rf10_stored);
        failures.push_back(buf);
      }
    }
  });
  return plan;
}

// ---------------------------------------------------------------------------
// topo: the src/net/topo zoo (star, ToR tiers at several oversubscription
// factors, fat-tree, rotor) under the workloads where the fabric matters,
// all on a 40-glidein quiet-grid HOG deployment (8 nodes per site — small
// enough that a rack's uplink genuinely binds below the site's 2 Gbps WAN
// uplink when oversubscribed):
//   shuffle  the 88-job Facebook replay with preemption disabled, so the
//            fabric is the only variable: cross-rack shuffle and HDFS
//            writes ride it, and an oversubscribed ToR tier must slow the
//            workload down vs the non-blocking star. (Under the default
//            churn the makespan is preemption lottery — a ±10% effect
//            that swamps the fabric penalty.)
//   drain    the same replay plus a mid-run two-site preemption burst and
//            a post-workload healing drain: the burst is the only node
//            loss, so the repair backlog is fixed and the re-replication
//            flows (source rack up, target rack down — the fabric twice)
//            are the only variable. A starved fabric inflates
//            time-to-full-replication.
//   adaptive the drain workload with the availability-targeted RF
//            controller at 0.999 — topology-aware racks feed the
//            controller's site census, and the run must stay audit-clean.
//
// The tor16 rows organically fail a handful of the largest shuffle jobs
// (task-attempt exhaustion once the fabric starves their reduce fetches) —
// deliberate collateral of an oversubscription factor high enough to bind:
// the damage is visible in jobs_survived, while committed outputs stay
// intact (outputs_lost == 0 is gated). Gates: no violation, every job
// terminated and no lost output on ANY config; every drain row healed
// before its deadline; per seed, tor16 strictly slower than star on
// shuffle response and strictly slower to heal on the drain — the fabric
// model must actually bite. The star/tor16 pairs lead and are the --fast
// rows; --topology=SPEC adds one custom-shuffle row.

constexpr int kTopoNodes = 40;

enum class TopoMode { kShuffle, kDrain, kAdaptive };

struct TopoConfig {
  std::string label;
  std::string topology;  // net::topo::CreateTopology spec
  TopoMode mode = TopoMode::kShuffle;
};

// The preemption burst for the drain/adaptive modes: two sites lose a large
// slice of their glideins mid-workload (late enough that a big replica
// inventory exists), queueing rack-spread re-replications whose repair
// flows must cross the fabric. 78/80 minutes lands just before the
// quiet-grid workload's earliest completion (~82 m across the zoo and the
// default seeds), so the repair backlog is near-final-inventory-sized and
// its tail extends past workload end into the measured drain window.
constexpr const char* kDrainScenario =
    "at 78m preempt-site 0 0.5\n"
    "at 80m preempt-site 2 0.4\n";
// First-burst offset from workload start: the zero point of the
// burst_to_healed_s metric (burst -> under-replication queue empty).
// Measuring from the burst rather than from workload end removes the
// makespan confound — a slower fabric ends the workload later and would
// otherwise get a head start on its own drain clock.
constexpr double kBurstOffsetS = 78 * 60.0;

Metrics RunTopo(const TopoConfig& cfg, std::uint64_t seed,
                const fault::Scenario& drain_scenario, HogRunOptions ropts) {
  ropts.topology = cfg.topology;
  const fault::Scenario* scenario = nullptr;
  if (cfg.mode != TopoMode::kShuffle) {
    scenario = &drain_scenario;
    ropts.drain_deadline = 2 * kHour;
  }
  if (cfg.mode == TopoMode::kAdaptive) ropts.repl_target = 0.999;
  const auto t0 = std::chrono::steady_clock::now();
  const auto result =
      RunHogWorkload(kTopoNodes, seed, QuietGrid(), scenario, ropts);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {
      {"violations", static_cast<double>(result.audit_violations)},
      {"outputs_lost", static_cast<double>(result.outputs_lost)},
      {"all_terminated", result.workload.completed ? 1.0 : 0.0},
      {"response_s", result.workload.response_time_s},
      {"fully_replicated", result.fully_replicated ? 1.0 : 0.0},
      {"time_to_full_repl_s", result.time_to_full_replication_s},
      // NaN (not measured) on shuffle rows and on a drain that never healed.
      {"burst_to_healed_s",
       cfg.mode == TopoMode::kShuffle
           ? std::numeric_limits<double>::quiet_NaN()
           : result.workload.response_time_s +
                 result.time_to_full_replication_s - kBurstOffsetS},
      {"repair_gib", static_cast<double>(result.repair_bytes) / kGiBDouble},
      {"jobs_survived", static_cast<double>(result.workload.succeeded)},
      {"maps_reexecuted", static_cast<double>(result.maps_reexecuted)},
      {"targets_raised", static_cast<double>(result.repl_targets_raised)},
      {"host.wall_s", wall}};
}

/// Per seed: config `slow` must report a strictly larger `metric` than
/// config `fast` (both present; a NaN on either side fails).
Relation SlowerPerSeed(std::string slow, std::string fast,
                       std::string metric) {
  return [slow, fast, metric](const SweepSpec& spec, const SweepResult& sweep,
                              std::vector<std::string>& failures) {
    for (const std::uint64_t seed : spec.seeds) {
      const RunRecord* a = FindRun(spec, sweep, slow, seed);
      const RunRecord* b = FindRun(spec, sweep, fast, seed);
      if (a == nullptr || b == nullptr) continue;
      const double slow_value = a->Metric(metric);
      const double fast_value = b->Metric(metric);
      if (slow_value > fast_value) continue;
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%s seed %llu: %s %.3f not above %s's %.3f",
                    slow.c_str(), static_cast<unsigned long long>(seed),
                    metric.c_str(), slow_value, fast.c_str(), fast_value);
      failures.push_back(buf);
    }
  };
}

Plan TopoPlan(const Setup& setup) {
  const std::vector<TopoConfig> zoo = {
      {"star-shuffle", "star", TopoMode::kShuffle},
      {"tor16-shuffle", "tor:racks=4;oversub=16", TopoMode::kShuffle},
      {"star-drain", "star", TopoMode::kDrain},
      {"tor16-drain", "tor:racks=4;oversub=16", TopoMode::kDrain},
      {"tor1-shuffle", "tor:racks=4;oversub=1", TopoMode::kShuffle},
      {"tor4-shuffle", "tor:racks=4;oversub=4", TopoMode::kShuffle},
      {"tor8-shuffle", "tor:racks=4;oversub=8", TopoMode::kShuffle},
      {"fattree-shuffle", "fattree:k=4;gbps=1", TopoMode::kShuffle},
      {"rotor-shuffle", "rotor:racks=4;slice_ms=100;gbps=1",
       TopoMode::kShuffle},
      {"fattree-drain", "fattree:k=4;gbps=1", TopoMode::kDrain},
      {"rotor-drain", "rotor:racks=4;slice_ms=100;gbps=1", TopoMode::kDrain},
      {"star-adaptive", "star", TopoMode::kAdaptive},
      {"tor16-adaptive", "tor:racks=4;oversub=16", TopoMode::kAdaptive},
  };
  constexpr std::size_t kFastConfigs = 4;
  // The auditor is always armed (violations are gated); --audit makes it
  // fail fast. The topology is this experiment's per-config knob.
  HogRunOptions base = setup.opts.hog;
  base.audit = true;
  const auto drain = std::make_shared<const fault::Scenario>(
      fault::ParseScenario(kDrainScenario, "<topo drain>"));
  Plan plan;
  const auto add = [&](const TopoConfig& cfg, bool fast) {
    Config config{.label = cfg.label,
                  .fast = fast,
                  .checks = {Eq("violations", 0), Eq("all_terminated", 1),
                             Eq("outputs_lost", 0)},
                  .run = [cfg, drain, base](std::uint64_t seed) {
                    return RunTopo(cfg, seed, *drain, base);
                  }};
    if (cfg.mode != TopoMode::kShuffle) {
      config.checks.push_back(Eq("fully_replicated", 1));
    }
    plan.configs.push_back(std::move(config));
  };
  for (std::size_t i = 0; i < zoo.size(); ++i) add(zoo[i], i < kFastConfigs);
  if (!setup.opts.hog.topology.empty()) {
    add({"custom-shuffle", setup.opts.hog.topology, TopoMode::kShuffle},
        true);
  }
  plan.columns = {
      {.header = "response (s)", .metric = "response_s"},
      {.header = "vs star", .metric = "response_s", .stat = Stat::kRatio,
       .of = "star-shuffle", .decimals = 2, .unit = "x"},
      {.header = "burst to healed (s)", .metric = "burst_to_healed_s"},
      {.header = "repair (GiB)", .metric = "repair_gib", .decimals = 1},
      {.header = "jobs survived", .metric = "jobs_survived", .decimals = 1},
      {.header = "maps re-executed", .metric = "maps_reexecuted"}};
  plan.relations = {
      SlowerPerSeed("tor16-shuffle", "star-shuffle", "response_s"),
      SlowerPerSeed("tor16-drain", "star-drain", "burst_to_healed_s"),
  };
  return plan;
}

}  // namespace

extern const Experiment kScenarioStorm = {
    .name = "scenario_storm",
    .title = "Chaos: 55-node HOG under the --scenario fault file",
    .fast_seeds = FastSeeds::kFirst,
    .plan = StormPlan,
};

extern const Experiment kSoak = {
    .name = "soak",
    .title = "Chaos soak: random scenarios x seeds, self-healing contract",
    .fast_seeds = FastSeeds::kFirst,
    .takes_scenario = false,
    .plan = SoakPlan,
};

extern const Experiment kRepl = {
    .name = "repl",
    .title = "Replication ladder: fixed RF vs the adaptive controller",
    .takes_scenario = false,
    .plan = ReplPlan,
};

extern const Experiment kTopo = {
    .name = "topo",
    .title = "Topology zoo: star, ToR, fat-tree and rotor fabrics",
    .takes_scenario = false,
    .plan = TopoPlan,
};

}  // namespace hogsim::exp
