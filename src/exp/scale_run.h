// Scale-benchmark harness: one HOG cluster run at a given (nodes, sites,
// jobs) point, reporting both deterministic simulation metrics and
// (optionally) host-side cost metrics.
//
// The point of bench_scale is to keep the simulator honest about
// asymptotics: the incremental even-share re-rating, the deadline-heap
// expiry monitors, and the flat block/node arenas all claim O(changed
// state) behaviour, and the only way to regress-test that claim is to run
// grids that are big enough for an accidental O(cluster) scan to show up
// in wall-clock. The grid tops out at 10k glideins across 100 sites — an
// order of magnitude past the paper's 1101-node experiment.
//
// Metric split: `executed`/`jobs_succeeded`/`audit_violations`/... depend
// only on (config, seed) and are byte-stable across machines and thread
// counts; `wall_s`/`peak_rss_mib`/`events_per_sec` measure this process on
// this machine and are only meaningful against a baseline from comparable
// hardware. RunScaleWorkload emits the host metrics only when
// `host_metrics` is set, so CI gates and determinism tests can compare
// the deterministic rows alone (a candidate without host rows makes them
// "missing in candidate", which compare_bench does not count as a
// regression).
#pragma once

#include <cstdint>

#include "src/exp/paper_runs.h"
#include "src/exp/sweep.h"

namespace hogsim::exp {

struct ScaleConfig {
  /// Target glideins, spread evenly over `sites` sites.
  int nodes = 1000;
  /// Synthetic site count (each gets pool_size = nodes / sites).
  int sites = 10;
  /// Length of the synthesized submission schedule.
  int jobs = 60;
  /// Emit wall_s / peak_rss_mib / events_per_sec rows.
  bool host_metrics = true;
};

/// Builds a `sites`-site grid of stable (no-churn) sites, spins up
/// `nodes` glideins, runs a synthesized `jobs`-job schedule to
/// completion, and returns the run's metrics. Deterministic rows come
/// first and are identical for a given (config, seed) on any machine.
/// The fail-fast auditor is always armed, on a 10 min tick.
Metrics RunScaleWorkload(const ScaleConfig& config, std::uint64_t seed,
                         HogRunOptions options = {});

}  // namespace hogsim::exp
