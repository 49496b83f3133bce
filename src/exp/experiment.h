// The experiment table behind `hogbench <experiment>` (hogsim::exp).
//
// Every paper table and figure, every ablation and §IV.D experience, and
// every extension bench is one exp::Experiment. An experiment declares only
// what is its own: its configs and their --fast subset, a run function per
// config, its table's columns, its notes, and its gates. One runner
// (exp::RunExperiment in src/exp/bench_main.h) does the rest for all of
// them: parse the uniform flags, trim for --fast, load --scenario, print
// the title and preface, run the sweep, print the table and the notes,
// evaluate the gates and set the exit code.
//
// A table is data: columns that name a metric and a statistic, printed by
// RenderTable. Notes read configs by label (ConfigMean), not by position.
//
// Gates read metrics by name. A per-run bound is data (a Check on its
// config); a claim that relates runs to each other (one config slower than
// another per seed, one config's mean dominating another's) is a Relation,
// a small function over the sweep.
//
// Experiments() is an explicit list, not static-initialiser
// self-registration: libhogsim.a is a static library, and the linker drops
// object files that nothing references, so a self-registered experiment
// would silently vanish from hogbench.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/exp/bench_main.h"
#include "src/exp/paper_runs.h"
#include "src/exp/sweep.h"
#include "src/fault/scenario.h"
#include "src/util/table.h"

namespace hogsim::exp {

/// What --fast keeps of an experiment's seeds.
enum class FastSeeds {
  kAll,
  kFirst,
  kFirstAndLast,  ///< Fig. 5's stable/unstable pair (kAll below 3 seeds)
};

/// What an experiment's plan, runs and tables read for one invocation.
struct Setup {
  BenchOptions opts;         ///< The parsed flags, seeds trimmed for --fast.
  fault::Scenario scenario;  ///< --scenario (empty when none).
};

/// A per-run gate on one named metric: every run of the config that
/// declares it must report `metric` == `bound`, or, when `at_most` is set,
/// `metric` <= `bound` (times the run's metric `per`, when named).
struct Check {
  std::string metric;
  double bound = 0;
  bool at_most = false;
  std::string per = {};
};

/// `metric` == `value` on every run.
Check Eq(std::string metric, double value);
/// `metric` <= `share` x `per` on every run.
Check AtMost(std::string metric, double share, std::string per);

/// One config of an experiment's sweep.
struct Config {
  std::string label;      ///< The sweep's config label (JSON "config").
  std::string name = {};  ///< Its table row's name; empty means the label.
  bool fast = true;       ///< Kept by --fast.
  std::vector<Check> checks = {};
  std::function<Metrics(std::uint64_t seed)> run = {};
};

/// A gate across runs: appends one message per failure. Messages name the
/// config, the seed(s) and the metric.
using Relation = std::function<void(const SweepSpec&, const SweepResult&,
                                    std::vector<std::string>& failures)>;

/// What a table column makes of its metric. A mean (or ratio) over fewer
/// seeds than the config ran, the others not having measured the metric,
/// is printed with its coverage, e.g. "0 (1/3)".
enum class Stat {
  kMean,   ///< the mean over the config's seeds
  kCi95,   ///< the 95% CI half-width of that mean, printed "+-x"
  kSeeds,  ///< each seed's value, in seed order, joined by " / "
  kRatio,  ///< the mean over config `of`'s mean
};

/// One column of an experiment's table: `metric`, read by name, reduced by
/// `stat`, times `scale`, printed with `decimals` and then `unit`.
struct Column {
  std::string header;
  std::string metric;
  Stat stat = Stat::kMean;
  std::string of = {};  ///< kRatio: the label of the config it divides by.
  int decimals = 0;
  double scale = 1;
  std::string unit = {};
};

/// An experiment's sweep for one invocation.
struct Plan {
  std::vector<Config> configs;
  /// Printed before the sweep: the paper's verbatim tables.
  std::string preface = {};
  /// The table printed after the sweep's summary lines (RenderTable).
  std::vector<Column> columns = {};
  /// Printed after the table: verdicts, prose and derived values.
  std::function<void(const SweepSpec&, const SweepResult&)> notes = {};
  std::vector<Relation> relations = {};

  /// True when the plan declares any gate: the runner then prints a
  /// PASSED/FAILED verdict and exits 1 on a failure.
  bool gated() const;
};

struct Experiment {
  /// The sweep name: `hogbench <name>` writes BENCH_<name>.json.
  std::string_view name;
  std::string_view title;  ///< `hogbench --list` and each run print it.
  FastSeeds fast_seeds = FastSeeds::kAll;
  /// False for experiments whose runs do not inject --scenario (they build
  /// no HOG cluster, or arm their own faults): the runner refuses the flag.
  bool takes_scenario = true;
  /// Builds the plan. `setup` outlives the plan, so its closures may keep
  /// a reference to it.
  Plan (*plan)(const Setup& setup) = nullptr;
};

/// Every experiment, in `hogbench --list` order.
std::span<const Experiment* const> Experiments();

/// The experiment called `name`, or nullptr.
const Experiment* FindExperiment(std::string_view name);

/// The index of config `label`, or spec.configs when the sweep has no such
/// config (a relation over rows that --fast or a flag left out skips
/// them).
std::size_t ConfigIndex(const SweepSpec& spec, std::string_view label);

/// The run of config `label` at `seed`, or nullptr when the sweep has no
/// such config or seed.
const RunRecord* FindRun(const SweepSpec& spec, const SweepResult& result,
                         std::string_view label, std::uint64_t seed);

/// The mean of `metric` over config `label`'s runs. Throws
/// std::out_of_range, naming the config or the metric, when the sweep has
/// no such config or the config no such metric.
double ConfigMean(const SweepSpec& spec, const SweepResult& sweep,
                  std::string_view label, std::string_view metric);

/// "YES" or "NO": a note's verdict.
inline const char* YesNo(bool holds) { return holds ? "YES" : "NO"; }

/// The plan's columns over the sweep: one row per config, named by its
/// `name` (or label), or, when the sweep has one config, one row per seed
/// holding that run's values (its ratio and CI cells read "-"). A config
/// that lacks the metric, has no finite value of it, or divides by a config
/// the sweep lacks reads "-". Throws std::out_of_range, naming the column,
/// when no config reports a column's metric.
TextTable RenderTable(const Plan& plan, const SweepSpec& spec,
                      const SweepResult& sweep);

/// Every gate failure of the sweep, per-run checks first (config-major,
/// seed-minor), then the relations in order. Empty means every gate held.
std::vector<std::string> EvaluateGates(const Plan& plan,
                                       const SweepSpec& spec,
                                       const SweepResult& result);

}  // namespace hogsim::exp
