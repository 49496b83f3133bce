// Gray-failure bench harness (src/health): the detection-latency vs
// false-positive frontier of the pluggable failure detectors, and the
// goodput cost of a slow-node storm with and without node quarantine.
//
// Two run shapes, both deterministic per (config, seed) — byte-stable
// across machines and --threads values, so BENCH_gray.json is
// compare_bench-gateable:
//
//  * RunGrayDetection — a quiet cluster under a heartbeat-jitter palette
//    (the delay-heartbeats gray fault applied to every site). A steady
//    window counts false suspicions (trackers declared lost while their
//    process was alive the whole time), then one site is preempted cold
//    and the run measures how long the detector takes to declare every
//    killed tracker. Sweeping the detector spec across the same palette
//    traces the frontier bench_gray gates: the phi-accrual detector must
//    not be dominated by any fixed-deadline point.
//
//  * RunGrayStorm — a multi-job workload during which a fixed set of
//    leases is slowed 4x (slow-node storm). With quarantine enabled the
//    degraded nodes are probated and the schedulers route around them;
//    the headline goodput-per-slot-hour must beat the no-quarantine run.
#pragma once

#include <cstdint>
#include <string>

#include "src/exp/paper_runs.h"
#include "src/exp/sweep.h"
#include "src/util/units.h"

namespace hogsim::exp {

struct GrayDetectionConfig {
  /// Detector spec for both masters (health::CreateDetector grammar). The
  /// detector under test, so it overrides options.detector.
  std::string detector = "deadline";
  /// mr.tracker_expiry: the deadline detector's timeout and the phi
  /// detector's bootstrap silence budget.
  SimDuration expiry = 10 * kMinute;
  /// Max per-heartbeat delay applied to every node (the jitter palette).
  SimDuration jitter = 0;
  /// Settle time between jitter onset and the false-suspicion count: an
  /// adaptive detector re-learns its inter-arrival statistics here
  /// without being charged for the regime change.
  SimDuration adapt_window = 20 * kMinute;
  /// Target glideins on the default OSG sites (quiet grid: no churn, so
  /// every lost tracker is the detector's doing).
  int nodes = 25;
  /// False-suspicion window between jitter onset and the site kill.
  SimDuration steady_window = 2 * kHour;
  /// Give-up bound for the post-kill declare-all wait.
  SimDuration detect_deadline = 2 * kHour;
};

/// Rows: false_suspects, detect_all_s, detect_mean_silence_s,
/// trackers_killed, executed_events, ...
Metrics RunGrayDetection(const GrayDetectionConfig& config,
                         std::uint64_t seed, HogRunOptions options = {});

struct GrayStormConfig {
  /// Arm health::Quarantine (flap + degraded-node probation).
  bool quarantine = false;
  /// Target glideins (quiet grid; the storm is the only fault source).
  int nodes = 40;
  /// Length of the synthesized schedule.
  int jobs = 48;
  /// Leases slowed by the storm (grid lease ids 0..slow_nodes-1).
  int slow_nodes = 8;
  /// Compute slowdown factor applied to the slowed leases.
  double slow_factor = 4.0;
  /// Storm onset, relative to workload submission. Early onset: the
  /// probation ramp (min_task_samples slow maps per node) must fit well
  /// inside the measured window for quarantine to pay.
  SimTime slow_at = 30 * kSecond;
};

/// Rows: jobs_succeeded, response_s, goodput_per_slot_hour,
/// speculative_attempts, probations, audit_violations, ... The auditor is
/// always armed: its violations are a row the storm gate reads.
Metrics RunGrayStorm(const GrayStormConfig& config, std::uint64_t seed,
                     HogRunOptions options = {});

}  // namespace hogsim::exp
