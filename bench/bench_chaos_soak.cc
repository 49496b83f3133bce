// Chaos soak: random scenario x seed matrices with the invariant auditor
// armed — the acceptance harness for the self-healing stack.
//
// Each config of the sweep is one seeded fault::RandomScenario (survivable
// palette: partial preemptions, zombies, freezes, partitions, bounded
// master blackouts, plus the gray faults — slow nodes, delayed
// heartbeats, disk stalls); each run replays the Facebook workload on a
// 55-node
// HOG deployment under that scenario with a check::Auditor ticking, then
// keeps the cluster alive until the under-replication queue drains. The
// soak PASSES only if, across every (scenario, seed) run:
//
//   - the auditor found zero cross-layer invariant violations,
//   - no committed output block of a succeeded job was lost,
//   - every job reached a terminal state (workload completed).
//
// Any breach prints the offending runs and exits 1. BENCH_soak.json holds
// the recovery metrics (time-to-full-replication, jobs survived, violation
// counts) for compare_bench gating.
//
//   bench_chaos_soak --fast            # 3 scenarios x 1 seed smoke
//   bench_chaos_soak                   # 25 scenarios x DefaultSeeds
//   bench_chaos_soak --audit           # violations fail fast mid-run
#include <cstdio>
#include <string>
#include <vector>

#include "src/exp/bench_main.h"
#include "src/exp/paper_runs.h"
#include "src/fault/random_scenario.h"

using namespace hogsim;

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  const std::size_t scenario_count = opts.fast ? 3 : 25;
  if (opts.fast) opts.seeds.resize(1);

  // Scenario seeds are fixed (not tied to sweep seeds): scenario k is the
  // same chaos schedule on every machine and under --seeds overrides.
  // The gray palette rides along (slow nodes, delayed heartbeats, disk
  // stalls): the self-healing contract must hold when faults degrade
  // nodes instead of killing them.
  fault::RandomScenarioOptions chaos_opts;
  chaos_opts.gray = true;
  std::vector<fault::Scenario> scenarios;
  std::vector<std::string> labels;
  for (std::size_t k = 0; k < scenario_count; ++k) {
    scenarios.push_back(fault::RandomScenario(1000 + k, chaos_opts));
    labels.push_back("chaos" + std::to_string(k));
  }

  std::printf("Chaos soak: %zu random scenario(s) x %zu seed(s), auditor "
              "armed%s\n\n",
              scenario_count, opts.seeds.size(),
              opts.audit ? " (fail-fast)" : "");

  exp::SweepSpec spec;
  spec.name = "soak";
  spec.configs = scenario_count;
  spec.config_labels = labels;
  // The auditor is always armed (violations are a soak row); --audit
  // makes it fail fast.
  exp::HogRunOptions ropts = exp::HogRunOptionsFrom(opts);
  ropts.audit = true;
  ropts.drain_deadline = 2 * kHour;
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec,
      [&scenarios, &ropts](std::size_t config,
                           std::uint64_t seed) -> exp::Metrics {
        const auto result =
            exp::RunHogWorkload(55, seed, {}, &scenarios[config], ropts);
        const int jobs =
            result.workload.succeeded + result.workload.failed;
        return {{"violations",
                 static_cast<double>(result.audit_violations)},
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
                 static_cast<double>(result.faults_injected)}};
      });

  // The soak gate: every run must be violation-free, loss-free, and fully
  // terminated.
  int bad_runs = 0;
  for (const exp::RunRecord& run : sweep.runs) {
    const double violations = run.Metric("violations");
    const double outputs_lost = run.Metric("outputs_lost");
    const double all_terminated = run.Metric("all_terminated");
    if (violations == 0 && outputs_lost == 0 && all_terminated == 1.0) {
      continue;
    }
    ++bad_runs;
    std::printf("SOAK FAIL: %s seed %llu: violations=%g outputs_lost=%g "
                "all_terminated=%g\n",
                labels[run.config_index].c_str(),
                static_cast<unsigned long long>(run.seed), violations,
                outputs_lost, all_terminated);
  }
  if (bad_runs > 0) {
    std::printf("\nchaos soak FAILED: %d of %zu runs breached the "
                "self-healing contract\n", bad_runs, sweep.runs.size());
    return 1;
  }
  std::printf("\nchaos soak PASSED: %zu runs, zero invariant violations, "
              "zero lost outputs, all jobs terminated\n",
              sweep.runs.size());
  return 0;
}
