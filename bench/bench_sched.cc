// Scheduler head-to-head: the same multi-user workload, cluster, and
// chaos palette under each policy in the zoo (fifo / fair / capacity /
// atlas), so every metric delta between rows is attributable to the
// policy alone. The headline is goodput_per_slot_hour — tasks of
// succeeded jobs per nominal slot-hour — which rewards keeping slots
// busy with work that survives the faults. BENCH_sched.json commits the
// trajectory for compare_bench.
//
// All emitted metrics are deterministic per (config, seed): byte-stable
// across machines and --threads values (tests/sched_bench_test.cc pins
// this), so the whole file is gateable without a host/deterministic
// split.
//
//   bench_sched --fast --audit      # CI gate (fifo / fair / atlas)
//   bench_sched                     # full zoo incl. capacity
//   bench_sched --scheduler=fair    # single-policy run
#include <cstdio>
#include <string>
#include <vector>

#include "src/exp/bench_main.h"
#include "src/exp/sched_run.h"

using namespace hogsim;

namespace {

struct PolicyRow {
  const char* label;
  const char* spec;
};

/// The full zoo; --fast runs the first kFastConfigs entries. Fast rows
/// keep the full-run labels, specs, and default seeds, so a fast
/// candidate compares row-for-row against the committed full baseline.
constexpr int kFastConfigs = 3;

std::vector<PolicyRow> Zoo() {
  return {
      {"fifo", "fifo"},
      {"fair", "fair"},
      {"atlas", "atlas"},
      {"capacity", "capacity:queues=prod:0.7:1;adhoc:0.3:1"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);

  std::vector<PolicyRow> zoo = Zoo();
  if (opts.fast) zoo.resize(kFastConfigs);
  // --scheduler restricts the head-to-head to one row; an exact label
  // match keeps the row comparable against the committed baseline, and
  // an unknown spec becomes a single custom row (label = spec).
  if (!opts.scheduler.empty()) {
    std::vector<PolicyRow> picked;
    for (const PolicyRow& row : zoo) {
      if (opts.scheduler == row.label) picked.push_back(row);
    }
    if (picked.empty()) {
      static std::string custom = opts.scheduler;
      picked.push_back({custom.c_str(), custom.c_str()});
    }
    zoo = std::move(picked);
  }

  std::vector<std::string> labels;
  for (const PolicyRow& row : zoo) labels.push_back(row.label);

  std::printf("Scheduler head-to-head: %zu polic%s x %zu seed(s), chaos "
              "palette armed%s\n\n",
              zoo.size(), zoo.size() == 1 ? "y" : "ies", opts.seeds.size(),
              opts.audit ? ", auditor fail-fast" : "");

  exp::SweepSpec spec;
  spec.name = "sched";
  spec.configs = zoo.size();
  spec.config_labels = labels;
  // The policy is this bench's per-config knob.
  const exp::HogRunOptions base = exp::HogRunOptionsFrom(opts);
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec,
      [&zoo, &base](std::size_t config, std::uint64_t seed) -> exp::Metrics {
        exp::HogRunOptions ropts = base;
        ropts.scheduler = zoo[config].spec;
        return exp::RunSchedWorkload({}, seed, ropts);
      });

  // Gate: every run must reach its node target, bring every job to a
  // terminal state, and audit clean. Chaos may legitimately fail a job
  // (max_attempts exhausted on a dying site) — same contract as the
  // chaos soak — and failed jobs already drag the goodput headline, so
  // failures are compared, not gated.
  int bad_runs = 0;
  for (const exp::RunRecord& run : sweep.runs) {
    const double reached = run.Metric("reached_target");
    const double succeeded = run.Metric("jobs_succeeded");
    const double failed = run.Metric("jobs_failed");
    const double terminated = run.Metric("all_terminated");
    const double violations = run.Metric("audit_violations");
    if (reached == 1.0 && terminated == 1.0 && violations == 0) {
      continue;
    }
    ++bad_runs;
    std::printf("SCHED FAIL: %s seed %llu: reached=%g succeeded=%g "
                "failed=%g terminated=%g violations=%g\n",
                labels[run.config_index].c_str(),
                static_cast<unsigned long long>(run.seed), reached,
                succeeded, failed, terminated, violations);
  }
  if (bad_runs > 0) {
    std::printf("\nsched head-to-head FAILED: %d of %zu runs broke the "
                "contract\n", bad_runs, sweep.runs.size());
    return 1;
  }
  std::printf("\nsched head-to-head PASSED: %zu runs, all jobs terminated "
              "under chaos, audits clean\n", sweep.runs.size());
  return 0;
}
