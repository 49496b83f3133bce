// The experiments the hogbench table lists (src/exp/experiment.cc), the
// run functions of two of them that tests drive at sizes of their own, and
// Fig. 4's derived crossover.
#pragma once

#include <cstdint>
#include <optional>

#include "src/exp/experiment.h"

namespace hogsim::exp {

// The paper's evaluation (§IV): src/exp/paper_experiments.cc.
extern const Experiment kTable1;
extern const Experiment kTable2;
extern const Experiment kTable3;
extern const Experiment kFig4;
extern const Experiment kFig5Table4;
extern const Experiment kExpZombieDatanodes;
extern const Experiment kExpDiskOverflow;

/// Fig. 4's equivalence point in HOG nodes: where the "hog<nodes>" configs'
/// mean response first falls to "cluster100"'s, interpolated linearly
/// between the sampling points on either side; nullopt when it never does.
/// Points the sweep lacks (--fast) or never measured are passed over.
std::optional<double> Fig4Crossover(const SweepSpec& spec,
                                    const SweepResult& sweep);

// The design choices the paper asserts: src/exp/ablation_experiments.cc.
extern const Experiment kAblationDelayScheduling;
extern const Experiment kAblationHeartbeat;
extern const Experiment kAblationMulticopy;
extern const Experiment kAblationReplication;
extern const Experiment kAblationSecurity;
extern const Experiment kAblationSiteAwareness;

// Faults and self-healing: src/exp/chaos_experiments.cc.
extern const Experiment kScenarioStorm;
extern const Experiment kSoak;
extern const Experiment kRepl;
extern const Experiment kTopo;

// The extension seams: src/exp/extension_experiments.cc.
extern const Experiment kSched;
extern const Experiment kScale;
extern const Experiment kGray;

/// One point of the scale grid.
struct ScaleConfig {
  /// Target glideins, spread evenly over `sites` sites.
  int nodes = 1000;
  /// Synthetic site count (each gets pool_size = nodes / sites).
  int sites = 10;
  /// Length of the synthesized submission schedule.
  int jobs = 60;
};

/// The scale run: a `sites`-site grid of stable (no-churn) sites spins up
/// `nodes` glideins and runs a synthesized `jobs`-job schedule to
/// completion, with the fail-fast auditor armed on a 10 min tick.
/// Deterministic rows come first and are identical for a given (config,
/// seed) on any machine; the host rows host.wall_s, host.peak_rss_mib and
/// host.events_per_sec follow.
Metrics RunScaleWorkload(const ScaleConfig& config, std::uint64_t seed,
                         HogRunOptions options = {});

/// One run of the scheduler head-to-head.
struct SchedRunConfig {
  /// Target glideins on the five default OSG sites.
  int nodes = 55;
  /// Length of the synthesized multi-user schedule.
  int jobs = 32;
};

/// The scheduler run: spins up the cluster and replays the multi-user
/// schedule under the fixed chaos palette, so every policy and seed faces
/// the identical fault sequence. The policy is options.scheduler ("" =
/// fifo). The auditor is always armed (its violations are a row);
/// options.audit_fail_fast makes the first one abort the run. Every row is
/// deterministic per (config, seed).
Metrics RunSchedWorkload(const SchedRunConfig& config, std::uint64_t seed,
                         HogRunOptions options = {});

}  // namespace hogsim::exp
