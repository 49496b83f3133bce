// Uniform command-line surface for hogbench, and the one runner behind it.
//
// Every experiment (src/exp/experiment.h) accepts the same flags and
// produces the same artifacts:
//
//   --seeds=11,23,47   explicit seed list, or
//   --seeds=5          a count: the default 11/23/47 progression, extended
//                      deterministically (s[i] = 2*s[i-1] + 1)
//   --threads=N        sweep pool width (0 = hardware concurrency)
//   --out=PATH         where to write BENCH_<name>.json (default: cwd)
//   --fast             trim the run for smoke testing
//   --metrics-out=PATH per-run obs::MetricsRegistry snapshot JSON
//   --trace-out=PATH   per-run Chrome trace-event JSON (chrome://tracing)
//   --scenario=PATH    fault scenario (or .trace preemption trace) injected
//                      into every run of the sweep (see src/fault and
//                      EXPERIMENTS.md). Per-config and seed-independent:
//                      the same faults hit every (config, seed) run.
//                      Experiments that would not inject it refuse it.
//   --audit            arm the cross-layer invariant auditor (src/check)
//                      in every run, fail-fast: the first violated
//                      invariant aborts the experiment with a diagnostic.
//   --scheduler/--topology/--detector/--repl-target
//                      HOG-cluster knobs; ParseBenchOptions writes them and
//                      --audit into BenchOptions::hog, the HogRunOptions
//                      every HOG run of an experiment starts from.
//
// Every row is deterministic per (config, seed) except the host-measured
// "host.*" rows (IsHostMetric) of scale and topo.
//
// The obs flags produce one file per (config, seed) run: with a single run
// the path is used verbatim; with several, ".<config>.s<seed>" is inserted
// before the extension (trace.json -> trace.55nodes.s11.json). See
// docs/OBSERVABILITY.md for the analysis workflow.
//
// RunExperiment is the runner: parse, trim for --fast, load --scenario,
// print the title and the plan's preface, run the sweep, write the
// BENCH_*.json baseline and print the per-config summaries, print the
// plan's table and notes, evaluate the gates and set the exit code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/exp/paper_runs.h"
#include "src/exp/sweep.h"

namespace hogsim::exp {

struct Experiment;  // src/exp/experiment.h

struct BenchOptions {
  /// Seeds for the sweep. Default: the paper's "3 runs at each sampling
  /// point" (11/23/47). Distinct, each at most kMaxSeed: a repeated or
  /// larger seed fails the parse.
  std::vector<std::uint64_t> seeds = {11, 23, 47};
  unsigned threads = 0;  ///< Pool width; 0 = hardware concurrency.
  std::string out;       ///< Output path; "" = "BENCH_<name>.json" in cwd.
  bool fast = false;     ///< Smoke-test mode (--fast).
  /// Per-run metrics snapshot path ("" = disabled). Multi-run sweeps get
  /// ".<config>.s<seed>" inserted before the extension.
  std::string metrics_out;
  /// Per-run Chrome trace path ("" = disabled); same suffix rule. Enables
  /// the sim-time tracer for every Simulation built inside the run.
  std::string trace_out;
  /// Fault-scenario path ("" = no injection). RunExperiment loads it once
  /// per process; runs arm it on their own Simulation, so sweeps stay
  /// deterministic and thread-count independent.
  std::string scenario;
  /// --audit (audit and audit_fail_fast), --scheduler, --topology,
  /// --detector and --repl-target (specs validated at parse time): what
  /// every HOG run of the experiment starts from. sched, repl, topo and
  /// gray sweep one of these knobs and set it per config.
  HogRunOptions hog;
};

/// The per-run output path for --metrics-out/--trace-out: `base` verbatim
/// when `single_run`, otherwise ".<config>.s<seed>" inserted before the
/// extension (or appended when there is none).
std::string PerRunOutPath(const std::string& base, std::string_view config,
                          std::uint64_t seed, bool single_run);

/// The default seed progression: 11, 23, 47, then s[i] = 2*s[i-1] + 1
/// (95, 191, ...). Deterministic, so "--seeds=8" means the same eight
/// seeds on every machine.
std::vector<std::uint64_t> DefaultSeeds(std::size_t count);

/// Parses the uniform bench flags; argv[0] names the program in messages.
/// Unknown arguments print usage and exit with status 2; --help prints
/// usage and exits 0.
BenchOptions ParseBenchOptions(int argc, char* const* argv);

/// Runs `experiment` with the flags in argv[1..] (argv[0] names the
/// program in messages) and returns the exit status: 0 when the sweep ran
/// and every gate held, 1 on a gate failure or on any error during the
/// sweep (a missed spin-up, a fail-fast audit violation, an output that
/// cannot be written), reported as one line on stderr, and 2 on a usage
/// error.
int RunExperiment(const Experiment& experiment, int argc, char* const* argv);

/// `hogbench <experiment> [flags]`, `hogbench --list` (every experiment
/// name, one per line, with its title) and `hogbench --help`. An unknown
/// experiment name exits 2.
int HogbenchMain(int argc, char* const* argv);

}  // namespace hogsim::exp
