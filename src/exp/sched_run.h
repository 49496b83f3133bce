// Scheduler-bench harness: one HOG cluster run of a multi-user synthetic
// schedule under a chaos scenario, with a named scheduling policy.
//
// bench_sched runs this workload once per policy (fifo / fair / capacity
// / atlas) over identical clusters, schedules, and fault sequences, so
// every metric difference between configs is attributable to the policy
// alone. The headline metric is goodput per slot-hour — tasks of
// succeeded jobs completed per nominal slot-hour of the cluster — which
// rewards policies that keep slots busy with work that survives the
// chaos, and penalizes both idling (capacity hard caps) and wasted
// re-execution (failure-oblivious placement).
//
// Every metric emitted is deterministic for a (config, seed) pair:
// byte-stable across machines and --threads values, so BENCH_sched.json
// is compare_bench-gateable and tests can pin the JSON across thread
// counts (tests/sched_bench_test.cc).
#pragma once

#include <cstdint>

#include "src/exp/paper_runs.h"
#include "src/exp/sweep.h"

namespace hogsim::exp {

struct SchedRunConfig {
  /// Target glideins on the five default OSG sites.
  int nodes = 55;
  /// Length of the synthesized multi-user schedule.
  int jobs = 32;
  /// Seed of the fault::RandomScenario chaos palette armed at workload
  /// start (0 = no chaos). Fixed per config — not derived from the sweep
  /// seed — so every policy and seed faces the identical fault sequence.
  std::uint64_t chaos_seed = 7001;
};

/// Spins up the cluster, replays the schedule under chaos, and returns
/// deterministic metrics (jobs_succeeded, response_s, goodput_per_slot_hour,
/// attempts_preempted, audit_violations, ...). The policy is
/// options.scheduler ("" = fifo). The auditor is always armed — its
/// violations are a row — and options.audit_fail_fast makes the first
/// one abort the run (check::AuditError).
Metrics RunSchedWorkload(const SchedRunConfig& config, std::uint64_t seed,
                         HogRunOptions options = {});

}  // namespace hogsim::exp
