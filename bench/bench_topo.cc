// Intra-site topology head-to-head: the src/net/topo zoo (star, ToR
// tiers at several oversubscription factors, fat-tree, rotor) under the
// workloads where the fabric matters.
//
// Three workload modes, all on a 40-glidein HOG deployment (8 nodes per
// site — small enough that a rack's uplink genuinely binds below the
// site's 2 Gbps WAN uplink when oversubscribed):
//   shuffle  the 88-job Facebook replay on a churn-free grid (preemption
//            disabled), so the fabric is the only variable: cross-rack
//            shuffle and HDFS writes ride it, and an oversubscribed ToR
//            tier must slow the workload down vs the non-blocking star.
//            (Under the default churn the makespan is preemption
//            lottery — a ±10% effect that swamps the fabric penalty.)
//   drain    the same churn-free replay plus a mid-run two-site
//            preemption burst and a post-workload healing drain: the
//            burst is the only node loss, so the repair backlog is
//            fixed and the re-replication flows (source rack up, target
//            rack down — the fabric twice) are the only variable. A
//            starved fabric inflates time-to-full-replication.
//   adaptive the drain workload with the availability-targeted RF
//            controller at 0.999 — topology-aware racks feed the
//            controller's site census, and the run must stay audit-clean.
//
// Every run arms the cross-layer auditor. All metrics are sim-derived
// and deterministic across machines and --threads; --no-host-metrics
// drops the wall-clock row so the whole BENCH_topo.json is byte-stable
// (that is what the check.sh gate diffs against the committed baseline).
//
// The tor16 rows organically fail a handful of the largest shuffle jobs
// (task-attempt exhaustion once the fabric starves their reduce fetches)
// — deliberate collateral of an oversubscription factor high enough to
// bind: the damage is real, deterministic, and visible in jobs_survived,
// while committed outputs stay intact (outputs_lost == 0 is gated).
//
// The bench FAILS (exit 1) if any run breaches the contract:
//   - auditor violations, a non-terminated job, or a lost committed
//     output block on ANY config,
//   - a drain row that does not finish healing before its deadline,
//   - per seed: the oversubscribed ToR (tor16) not slower than star on
//     shuffle response time, or not slower to heal on the drain —
//     the fabric model must actually bite.
//
//   bench_topo --fast --no-host-metrics   # CI gate (star/tor16 pairs)
//   bench_topo                            # the full zoo
//   bench_topo --topology=SPEC            # add a custom shuffle row
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/exp/bench_main.h"
#include "src/exp/paper_runs.h"
#include "src/fault/scenario.h"

using namespace hogsim;

namespace {

constexpr double kGiBDouble = 1024.0 * 1024.0 * 1024.0;
constexpr int kNodes = 40;

enum class Mode { kShuffle, kDrain, kAdaptive };

struct TopoConfig {
  std::string label;
  std::string topology;  // net::topo::CreateTopology spec
  Mode mode = Mode::kShuffle;
};

// The preemption burst for the drain/adaptive modes: two sites lose a
// large slice of their glideins mid-workload (late enough that a big
// replica inventory exists), queueing rack-spread re-replications whose
// repair flows must cross the fabric.
// 78/80 minutes lands just before the quiet-grid workload's earliest
// completion (~82 m across the zoo and the default seeds), so the
// repair backlog is near-final-inventory-sized and its tail extends
// past workload end into the measured drain window.
constexpr const char* kDrainScenario =
    "at 78m preempt-site 0 0.5\n"
    "at 80m preempt-site 2 0.4\n";
// First-burst offset from workload start: the zero point of the
// burst_to_healed_s metric (burst -> under-replication queue empty).
// Measuring from the burst rather than from workload end removes the
// makespan confound — a slower fabric ends the workload later and would
// otherwise get a head start on its own drain clock.
constexpr double kBurstOffsetS = 78 * 60.0;

}  // namespace

int main(int argc, char** argv) {
  bool host_metrics = true;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-host-metrics") == 0) {
      host_metrics = false;
      continue;
    }
    args.push_back(argv[i]);
  }
  exp::BenchOptions opts = exp::ParseBenchOptions(
      static_cast<int>(args.size()), args.data());

  // The star/tor16 pairs lead so --fast keeps exactly the rows the
  // headline claims compare, with full-run labels — the fast rows diff
  // one-to-one against the committed baseline.
  std::vector<TopoConfig> configs = {
      {"star-shuffle", "star", Mode::kShuffle},
      {"tor16-shuffle", "tor:racks=4;oversub=16", Mode::kShuffle},
      {"star-drain", "star", Mode::kDrain},
      {"tor16-drain", "tor:racks=4;oversub=16", Mode::kDrain},
      {"tor1-shuffle", "tor:racks=4;oversub=1", Mode::kShuffle},
      {"tor4-shuffle", "tor:racks=4;oversub=4", Mode::kShuffle},
      {"tor8-shuffle", "tor:racks=4;oversub=8", Mode::kShuffle},
      {"fattree-shuffle", "fattree:k=4;gbps=1", Mode::kShuffle},
      {"rotor-shuffle", "rotor:racks=4;slice_ms=100;gbps=1", Mode::kShuffle},
      {"fattree-drain", "fattree:k=4;gbps=1", Mode::kDrain},
      {"rotor-drain", "rotor:racks=4;slice_ms=100;gbps=1", Mode::kDrain},
      {"star-adaptive", "star", Mode::kAdaptive},
      {"tor16-adaptive", "tor:racks=4;oversub=16", Mode::kAdaptive},
  };
  constexpr std::size_t kFastConfigs = 4;
  if (opts.fast) configs.resize(kFastConfigs);
  if (!opts.topology.empty()) {
    configs.push_back({"custom-shuffle", opts.topology, Mode::kShuffle});
  }

  const fault::Scenario drain_scenario =
      fault::ParseScenario(kDrainScenario, "<bench_topo drain>");

  std::vector<std::string> labels;
  for (const TopoConfig& c : configs) labels.push_back(c.label);

  std::printf("Topology zoo: %zu config(s) x %zu seed(s) on %d nodes, "
              "auditor armed%s\n\n",
              configs.size(), opts.seeds.size(), kNodes,
              opts.audit ? " (fail-fast)" : "");

  exp::SweepSpec spec;
  spec.name = "topo";
  spec.configs = configs.size();
  spec.config_labels = labels;
  // The auditor is always armed (violations are gated); --audit makes it
  // fail fast. The topology is this bench's per-config knob. Every row
  // runs on the quiet grid, so the star-vs-tor response delta measures
  // the fabric, not the preemption lottery.
  exp::HogRunOptions base = exp::HogRunOptionsFrom(opts);
  base.audit = true;
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec,
      [&configs, &drain_scenario, &base, host_metrics](
          std::size_t config, std::uint64_t seed) -> exp::Metrics {
        const TopoConfig& cfg = configs[config];
        exp::HogRunOptions ropts = base;
        ropts.topology = cfg.topology;
        const fault::Scenario* scenario = nullptr;
        if (cfg.mode != Mode::kShuffle) {
          scenario = &drain_scenario;
          ropts.drain_deadline = 2 * kHour;
        }
        if (cfg.mode == Mode::kAdaptive) ropts.repl_target = 0.999;
        const auto t0 = std::chrono::steady_clock::now();
        const auto result = exp::RunHogWorkload(kNodes, seed, exp::QuietGrid(),
                                                scenario, ropts);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        exp::Metrics metrics = {
            {"violations", static_cast<double>(result.audit_violations)},
            {"outputs_lost", static_cast<double>(result.outputs_lost)},
            {"all_terminated", result.workload.completed ? 1.0 : 0.0},
            {"response_s", result.workload.response_time_s},
            {"fully_replicated", result.fully_replicated ? 1.0 : 0.0},
            {"time_to_full_repl_s", result.time_to_full_replication_s},
            {"burst_to_healed_s",
             cfg.mode == Mode::kShuffle
                 ? -1.0
                 : result.workload.response_time_s +
                       std::max(result.time_to_full_replication_s, 0.0) -
                       kBurstOffsetS},
            {"repair_gib",
             static_cast<double>(result.repair_bytes) / kGiBDouble},
            {"jobs_survived",
             static_cast<double>(result.workload.succeeded)},
            {"maps_reexecuted",
             static_cast<double>(result.maps_reexecuted)},
            {"targets_raised",
             static_cast<double>(result.repl_targets_raised)}};
        if (host_metrics) metrics.push_back({"wall_s", wall});
        return metrics;
      });

  // Contract gate.
  int bad_runs = 0;
  for (const exp::RunRecord& run : sweep.runs) {
    const TopoConfig& cfg = configs[run.config_index];
    const double violations = run.Metric("violations");
    const double outputs_lost = run.Metric("outputs_lost");
    const double all_terminated = run.Metric("all_terminated");
    const double healed = run.Metric("fully_replicated");
    if (violations == 0 && all_terminated == 1.0 && outputs_lost == 0 &&
        (cfg.mode == Mode::kShuffle || healed == 1.0)) {
      continue;
    }
    ++bad_runs;
    std::printf("TOPO FAIL: %s seed %llu: violations=%g outputs_lost=%g "
                "all_terminated=%g fully_replicated=%g\n",
                labels[run.config_index].c_str(),
                static_cast<unsigned long long>(run.seed), violations,
                outputs_lost, all_terminated, healed);
  }

  // The fabric claims, per seed: the oversubscribed ToR must be strictly
  // slower than star on the shuffle replay and strictly slower to heal
  // on the drain — otherwise the topology model is not binding.
  const auto metric_for = [&](std::uint64_t seed, const char* label,
                              const char* metric) -> double {
    for (const exp::RunRecord& run : sweep.runs) {
      if (run.seed == seed && labels[run.config_index] == label) {
        return run.Metric(metric);
      }
    }
    return -1;
  };
  for (std::uint64_t seed : spec.seeds) {
    const double star_resp = metric_for(seed, "star-shuffle", "response_s");
    const double tor_resp = metric_for(seed, "tor16-shuffle", "response_s");
    if (star_resp >= 0 && tor_resp >= 0 && tor_resp <= star_resp) {
      ++bad_runs;
      std::printf("TOPO FAIL: seed %llu: tor16 shuffle response %.3f s not "
                  "above star's %.3f s\n",
                  static_cast<unsigned long long>(seed), tor_resp,
                  star_resp);
    }
    const double star_heal =
        metric_for(seed, "star-drain", "burst_to_healed_s");
    const double tor_heal =
        metric_for(seed, "tor16-drain", "burst_to_healed_s");
    if (star_heal >= 0 && tor_heal >= 0 && tor_heal <= star_heal) {
      ++bad_runs;
      std::printf("TOPO FAIL: seed %llu: tor16 drain healed in %.3f s, not "
                  "above star's %.3f s\n",
                  static_cast<unsigned long long>(seed), tor_heal,
                  star_heal);
    }
  }

  if (bad_runs > 0) {
    std::printf("\ntopology zoo FAILED: %d breach(es) of the fabric "
                "contract\n", bad_runs);
    return 1;
  }
  std::printf("\ntopology zoo PASSED: %zu runs, zero violations, zero lost "
              "outputs, oversubscribed fabric measurably binding\n",
              sweep.runs.size());
  return 0;
}
