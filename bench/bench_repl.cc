// Adaptive replication head-to-head: the availability-targeted controller
// (src/hdfs/repl_controller.h) vs a fixed-RF ladder {3, 5, 10} under the
// chaos-soak palette.
//
// Every config replays the Facebook workload on a 55-node HOG deployment
// under the same fixed random chaos scenario (the first scenario of the
// soak corpus), with the invariant auditor armed and a post-workload
// healing drain. Fixed-RF configs set HOG's flat replication; adaptive
// configs keep the paper's placement width of 10 but run the controller
// at an availability target, which right-sizes per-block RF in [3, 10] as
// the per-site preemption hazards are learned. Metrics per run: physical
// bytes stored vs logical bytes (the effective RF), WAN repair bytes,
// committed-output availability (outputs_lost), job goodput, and the
// controller's raise/lower/trim counters. All rows are deterministic, so
// check.sh diffs the fast run against the committed BENCH_repl.json.
//
// The bench FAILS (exit 1) if any run breaches the contract:
//   - auditor violations or a non-terminated job on ANY config,
//   - lost committed outputs on rf10 or any adaptive config (the low flat
//     rungs rf3/rf5 are allowed to lose data — they are the cost ladder
//     that motivates the controller, and their losses are reported),
//   - an adaptive config that does not store fewer bytes than flat RF=10
//     on the same seed (the point of the controller).
//
//   bench_repl --fast            # rf10 + adaptive999, full seed set
//   bench_repl                   # the whole ladder
//   bench_repl --repl-target=A   # add one extra adaptive rung at A
#include <cstdio>
#include <string>
#include <vector>

#include "src/exp/bench_main.h"
#include "src/exp/paper_runs.h"
#include "src/fault/random_scenario.h"

using namespace hogsim;

namespace {

constexpr double kGiBDouble = 1024.0 * 1024.0 * 1024.0;

struct ReplConfig {
  std::string label;
  int fixed_rf = 10;      // HogConfig.replication (placement width)
  double target = 0;      // > 0: adaptive controller at this availability
};

}  // namespace

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);

  // rf10 and adaptive999 lead so --fast keeps exactly the pair the
  // headline claim compares, with full-run labels/specs/seeds — the fast
  // rows diff one-to-one against the committed baseline.
  std::vector<ReplConfig> configs = {
      {"rf10", 10, 0},
      {"adaptive999", 10, 0.999},
      {"rf3", 3, 0},
      {"rf5", 5, 0},
      {"adaptive9999", 10, 0.9999},
  };
  constexpr std::size_t kFastConfigs = 2;
  if (opts.repl_target > 0) {
    configs.push_back({"adaptive-custom", 10, opts.repl_target});
  }
  if (opts.fast) configs.resize(kFastConfigs);

  // The same chaos schedule for every (config, seed) run: scenario 1000 of
  // the soak corpus, so the ladder differs only in replication policy.
  const fault::Scenario scenario = fault::RandomScenario(1000);

  std::vector<std::string> labels;
  for (const ReplConfig& c : configs) labels.push_back(c.label);

  std::printf("Replication ladder: %zu config(s) x %zu seed(s) under the "
              "soak palette, auditor armed%s\n\n",
              configs.size(), opts.seeds.size(),
              opts.audit ? " (fail-fast)" : "");

  exp::SweepSpec spec;
  spec.name = "repl";
  spec.configs = configs.size();
  spec.config_labels = labels;
  // The auditor is always armed (violations are gated); --audit makes it
  // fail fast. The repl target is this bench's per-config knob.
  exp::HogRunOptions base = exp::HogRunOptionsFrom(opts);
  base.audit = true;
  base.drain_deadline = 2 * kHour;
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec,
      [&configs, &scenario, &base](std::size_t config,
                                   std::uint64_t seed) -> exp::Metrics {
        const ReplConfig& cfg = configs[config];
        hog::HogConfig hog;
        hog.replication = cfg.fixed_rf;
        exp::HogRunOptions ropts = base;
        ropts.repl_target = cfg.target;
        const auto result =
            exp::RunHogWorkload(55, seed, hog, &scenario, ropts);
        const double logical =
            static_cast<double>(std::max<Bytes>(result.bytes_logical, 1));
        return {{"violations",
                 static_cast<double>(result.audit_violations)},
                {"outputs_lost", static_cast<double>(result.outputs_lost)},
                {"all_terminated", result.workload.completed ? 1.0 : 0.0},
                {"bytes_stored_gib",
                 static_cast<double>(result.bytes_stored) / kGiBDouble},
                {"bytes_logical_gib",
                 static_cast<double>(result.bytes_logical) / kGiBDouble},
                {"effective_rf",
                 static_cast<double>(result.bytes_stored) / logical},
                {"repair_gib",
                 static_cast<double>(result.repair_bytes) / kGiBDouble},
                {"jobs_survived",
                 static_cast<double>(result.workload.succeeded)},
                {"jobs_failed", static_cast<double>(result.workload.failed)},
                {"response_s", result.workload.response_time_s},
                {"time_to_full_repl_s", result.time_to_full_replication_s},
                {"fully_replicated", result.fully_replicated ? 1.0 : 0.0},
                {"targets_raised",
                 static_cast<double>(result.repl_targets_raised)},
                {"targets_lowered",
                 static_cast<double>(result.repl_targets_lowered)},
                {"excess_removed",
                 static_cast<double>(result.repl_excess_removed)}};
      });

  // Contract gate.
  int bad_runs = 0;
  for (const exp::RunRecord& run : sweep.runs) {
    const ReplConfig& cfg = configs[run.config_index];
    const double violations = run.Metric("violations");
    const double outputs_lost = run.Metric("outputs_lost");
    const double all_terminated = run.Metric("all_terminated");
    // Durability is only promised where redundancy is adequate: the full
    // paper RF or the availability-targeted controller. The cheap flat
    // rungs exist to lose data — that is the tradeoff being measured.
    const bool durability_gated = cfg.target > 0 || cfg.fixed_rf >= 10;
    if (violations == 0 && all_terminated == 1.0 &&
        (outputs_lost == 0 || !durability_gated)) {
      if (outputs_lost > 0) {
        std::printf("repl note: %s seed %llu lost %g committed output "
                    "block(s) (ungated rung)\n",
                    labels[run.config_index].c_str(),
                    static_cast<unsigned long long>(run.seed),
                    outputs_lost);
      }
      continue;
    }
    ++bad_runs;
    std::printf("REPL FAIL: %s seed %llu: violations=%g outputs_lost=%g "
                "all_terminated=%g\n",
                labels[run.config_index].c_str(),
                static_cast<unsigned long long>(run.seed), violations,
                outputs_lost, all_terminated);
  }

  // The storage claim, per seed: every adaptive config must store fewer
  // bytes than flat RF=10 under the identical chaos schedule.
  for (std::uint64_t seed : spec.seeds) {
    double rf10_stored = -1;
    for (const exp::RunRecord& run : sweep.runs) {
      if (run.seed == seed && labels[run.config_index] == "rf10") {
        rf10_stored = run.Metric("bytes_stored_gib");
      }
    }
    if (rf10_stored < 0) continue;
    for (const exp::RunRecord& run : sweep.runs) {
      if (run.seed != seed ||
          configs[run.config_index].target <= 0) {
        continue;
      }
      const double stored = run.Metric("bytes_stored_gib");
      if (stored >= rf10_stored) {
        ++bad_runs;
        std::printf("REPL FAIL: %s seed %llu: stored %.3f GiB, not below "
                    "rf10's %.3f GiB\n",
                    labels[run.config_index].c_str(),
                    static_cast<unsigned long long>(seed), stored,
                    rf10_stored);
      }
    }
  }

  if (bad_runs > 0) {
    std::printf("\nreplication ladder FAILED: %d breach(es) of the "
                "availability/storage contract\n", bad_runs);
    return 1;
  }
  std::printf("\nreplication ladder PASSED: %zu runs, zero violations, zero "
              "lost outputs, adaptive stored fewer bytes than rf10\n",
              sweep.runs.size());
  return 0;
}
