// Parallel multi-seed experiment harness.
//
// Every paper result is a statistic over independent simulation runs
// (N seeds x M configs). The engine itself is single-threaded and
// deterministic, so the natural parallelism is *between* runs: exp::Sweep
// executes each (config, seed) pair on a thread pool, one private
// Simulation per run, and returns results in a fixed config-major,
// seed-minor order — so a parallel sweep is byte-identical to running the
// same seeds sequentially.
//
// On top of the raw per-run metrics it aggregates per-config summaries
// (mean/stddev/min/max, p50/p95/p99, normal-approximation 95% CI on the
// mean) and can serialize everything to the BENCH_*.json convention, which
// gives the repo a machine-readable perf/accuracy trajectory to regress
// against (see ROADMAP.md).
//
// Units: metric values carry whatever unit the run function reports —
// encode it in the metric name (`response_s`, `traffic_gib`), since the
// summaries and BENCH_*.json preserve names verbatim. Thread-safety:
// RunSweep owns its pool and joins it before returning; the caller only
// needs `fn` to be safe to invoke concurrently (one private Simulation
// per call, no shared mutable state).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/stats.h"

namespace hogsim::exp {

/// One run's result: ordered (metric name, value) pairs. A run function
/// must emit the same names in the same order for every seed of a config.
using Metrics = std::vector<std::pair<std::string, double>>;

/// True for a host-measured row (wall clock, RSS, rates over wall time):
/// its name starts with "host.". Every other row must be a deterministic
/// function of (config, seed), which compare_bench checks exactly; host
/// rows are only reported.
inline bool IsHostMetric(std::string_view name) {
  return name.starts_with("host.");
}

/// Builds and runs one full simulation for (config_index, seed), returning
/// its metrics. Called concurrently from pool threads: it must not share
/// mutable state between calls (each call owns its Simulation).
using RunFn = std::function<Metrics(std::size_t config_index,
                                    std::uint64_t seed)>;

/// The largest seed --seeds accepts. Runs are keyed by seed, and the BENCH
/// JSON reader holds numbers as doubles, which are exact integers only up
/// to 2^53.
inline constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 53;

struct SweepSpec {
  std::string name = "sweep";          ///< Experiment name (JSON "name").
  std::vector<std::uint64_t> seeds;    ///< N seeds, run per config.
  std::size_t configs = 1;             ///< M config variants, 0..M-1.
  /// Optional per-config labels for human-readable output; empty means
  /// "config0", "config1", ...
  std::vector<std::string> config_labels;
  /// Pool width; 0 = std::thread::hardware_concurrency(). 1 runs inline
  /// with no threads at all (useful as the determinism reference).
  unsigned threads = 0;

  /// config_labels[config], or "config<N>" when the config has no label.
  std::string Label(std::size_t config) const;
};

struct RunRecord {
  std::size_t config_index = 0;
  std::uint64_t seed = 0;
  Metrics metrics;

  /// The value of the metric called `name`. Bench gates read metrics by
  /// name so reordering a run function's output cannot re-target a gate;
  /// an unknown name throws std::out_of_range naming the metric and the
  /// config, so a misspelt gate fails loudly instead of reading 0.
  double Metric(std::string_view name) const;
};

/// Per-config, per-metric summary across seeds. Non-finite per-run values
/// (a metric that was unmeasurable for that run) are excluded, so
/// stats.count() may be smaller than the seed count. A summary of count 0
/// measured nothing: its statistics are not numbers, and serialize as
/// null.
struct MetricSummary {
  std::string name;
  RunningStats stats;
  double p50 = 0, p95 = 0, p99 = 0;
  double ci95_halfwidth = 0;  ///< 1.96 * stddev / sqrt(n); 0 when n < 2.
};

struct SweepResult {
  /// One record per (config, seed), config-major then seed-minor — the
  /// same order regardless of thread interleaving.
  std::vector<RunRecord> runs;
  /// summaries[config] lists metrics in the order the run function emitted
  /// them.
  std::vector<std::vector<MetricSummary>> summaries;

  const RunRecord& run(std::size_t config, std::size_t seed_index,
                       std::size_t num_seeds) const {
    return runs[config * num_seeds + seed_index];
  }

  /// The summary of the metric called `name` in `config`. Like
  /// RunRecord::Metric, an unknown name (or config) throws
  /// std::out_of_range naming the metric and the config, so bench tables
  /// and gates read summaries by name, never by position.
  const MetricSummary& Summary(std::size_t config,
                               std::string_view name) const;
  /// Summary(config, name).stats.mean(): what bench tables print. NaN
  /// when no run measured the metric, so a gate never reads 0 there.
  double Mean(std::size_t config, std::string_view name) const;
};

/// Runs the sweep. Exceptions thrown by `fn` are re-thrown on the calling
/// thread after the pool drains.
SweepResult RunSweep(const SweepSpec& spec, const RunFn& fn);

/// Per-config summaries of `runs`, one per (config, seed) in RunSweep's
/// order. Throws std::runtime_error, naming the config, seed and metric,
/// when a run's metric names differ from its config's first run.
std::vector<std::vector<MetricSummary>> Summarize(
    const SweepSpec& spec, const std::vector<RunRecord>& runs);

/// Serializes spec + result to the BENCH_*.json format.
std::string ToBenchJson(const SweepSpec& spec, const SweepResult& result);

}  // namespace hogsim::exp
