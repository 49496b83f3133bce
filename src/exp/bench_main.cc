#include "src/exp/bench_main.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "src/exp/experiment.h"
#include "src/fault/scenario.h"
#include "src/health/detector.h"
#include "src/net/topo/topology.h"
#include "src/obs/obs.h"
#include "src/sched/policy.h"
#include "src/util/log.h"
#include "src/util/spec.h"
#include "src/util/strings.h"

namespace hogsim::exp {

namespace {

[[noreturn]] void Usage(const char* prog, int status) {
  std::fprintf(
      status == 0 ? stdout : stderr,
      "usage: %s [--seeds=LIST|COUNT] [--threads=N] [--out=PATH] [--fast]\n"
      "          [--metrics-out=PATH] [--trace-out=PATH] [--scenario=PATH]\n"
      "          [--audit] [--scheduler=NAME[:PARAMS]] [--repl-target=A]\n"
      "          [--topology=NAME[:PARAMS]] [--detector=NAME[:PARAMS]]\n"
      "  --seeds=11,23,47  explicit seed list\n"
      "  --seeds=5         first 5 seeds of the default progression\n"
      "  --threads=N       sweep pool width (0 = hardware concurrency)\n"
      "  --out=PATH        BENCH_*.json output path (default: cwd)\n"
      "  --fast            trimmed smoke run\n"
      "  --metrics-out=PATH  per-run metrics snapshot JSON\n"
      "  --trace-out=PATH    per-run Chrome trace JSON (chrome://tracing)\n"
      "                      (multi-run sweeps insert .<config>.s<seed>)\n"
      "  --scenario=PATH     fault scenario file (.trace = preemption\n"
      "                      trace) injected into every run of the sweep;\n"
      "                      experiments that would not inject it refuse it\n"
      "  --audit             arm the cross-layer invariant auditor\n"
      "                      (src/check) in every run; violations fail\n"
      "                      fast with a diagnostic\n"
      "  --scheduler=NAME    scheduling policy (fifo, fair, capacity,\n"
      "                      atlas; optional :params) for experiments that\n"
      "                      run a HOG cluster; sched uses it to restrict\n"
      "                      its policy head-to-head\n"
      "  --topology=NAME     intra-site network topology (star, tor,\n"
      "                      fattree, rotor; optional :key=value;... params,\n"
      "                      e.g. tor:racks=4;oversub=8) for experiments\n"
      "                      that run a HOG cluster\n"
      "  --repl-target=A     availability target in (0, 1) for the\n"
      "                      adaptive replication controller (e.g. 0.999);\n"
      "                      0 keeps the flat paper RF. repl adds it as an\n"
      "                      extra adaptive ladder rung\n"
      "  --detector=NAME     heartbeat failure detector (deadline, phi;\n"
      "                      optional :key=value;... params, e.g.\n"
      "                      phi:threshold=8;window=64) for both masters'\n"
      "                      expiry checks in experiments that run a HOG\n"
      "                      cluster (gray's frontier rows set their own)\n",
      prog);
  std::exit(status);
}

/// `text` as an integer in [0, max], or nullopt.
std::optional<std::uint64_t> ParseUpTo(std::string_view text,
                                       std::uint64_t max) {
  const std::optional<std::int64_t> value = ParseInteger(text);
  if (!value || *value < 0 || static_cast<std::uint64_t>(*value) > max) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(*value);
}

}  // namespace

std::vector<std::uint64_t> DefaultSeeds(std::size_t count) {
  std::vector<std::uint64_t> seeds = {11, 23, 47};
  if (count < seeds.size()) {
    seeds.resize(count);
    return seeds;
  }
  while (seeds.size() < count) seeds.push_back(seeds.back() * 2 + 1);
  return seeds;
}

BenchOptions ParseBenchOptions(int argc, char* const* argv) {
  BenchOptions opts;
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") Usage(prog, 0);
    if (arg == "--fast") {
      opts.fast = true;
      continue;
    }
    if (arg == "--audit") {
      opts.hog.audit = opts.hog.audit_fail_fast = true;
      continue;
    }
    const auto eat = [&](std::string_view flag,
                         std::string_view& value) -> bool {
      if (!StartsWith(arg, flag)) return false;
      value = arg.substr(flag.size());
      return true;
    };
    std::string_view value;
    if (eat("--seeds=", value)) {
      std::vector<std::uint64_t> seeds;
      for (const std::string& field : Split(value, ',')) {
        const std::optional<std::uint64_t> seed =
            ParseUpTo(Trim(field), kMaxSeed);
        if (!seed) {
          std::fprintf(stderr,
                       "%s: bad --seeds value '%s' (each seed an integer in "
                       "[0, 2^53])\n",
                       prog, std::string(value).c_str());
          Usage(prog, 2);
        }
        seeds.push_back(*seed);
      }
      if (seeds.empty()) Usage(prog, 2);
      // A single bare number is a count, not a seed: "--seeds=5" runs the
      // default progression's first five seeds.
      if (seeds.size() == 1 && value.find(',') == std::string_view::npos &&
          seeds[0] <= 64) {
        opts.seeds = DefaultSeeds(static_cast<std::size_t>(seeds[0]));
      } else {
        opts.seeds = std::move(seeds);
      }
      if (opts.seeds.empty()) {
        std::fprintf(stderr, "%s: --seeds needs at least one seed\n", prog);
        Usage(prog, 2);
      }
      // The default progression passes kMaxSeed after 50 seeds.
      if (*std::max_element(opts.seeds.begin(), opts.seeds.end()) > kMaxSeed) {
        std::fprintf(stderr, "%s: bad --seeds value '%s' (the default "
                     "progression passes 2^53 after 50 seeds)\n",
                     prog, std::string(value).c_str());
        Usage(prog, 2);
      }
      // A sweep keys its runs by seed: a repeated seed would run twice
      // and collide in the per-seed tables.
      std::vector<std::uint64_t> sorted = opts.seeds;
      std::sort(sorted.begin(), sorted.end());
      const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
      if (dup != sorted.end()) {
        std::fprintf(stderr, "%s: duplicate seed %llu in --seeds\n", prog,
                     static_cast<unsigned long long>(*dup));
        Usage(prog, 2);
      }
      continue;
    }
    if (eat("--threads=", value)) {
      const std::optional<std::uint64_t> threads = ParseUpTo(value, 1024);
      if (!threads) {
        std::fprintf(stderr, "%s: bad --threads value '%s' (want 0..1024)\n",
                     prog, std::string(value).c_str());
        Usage(prog, 2);
      }
      opts.threads = static_cast<unsigned>(*threads);
      continue;
    }
    if (eat("--out=", value)) {
      if (value.empty()) Usage(prog, 2);
      opts.out = std::string(value);
      continue;
    }
    if (eat("--metrics-out=", value)) {
      if (value.empty()) Usage(prog, 2);
      opts.metrics_out = std::string(value);
      continue;
    }
    if (eat("--trace-out=", value)) {
      if (value.empty()) Usage(prog, 2);
      opts.trace_out = std::string(value);
      continue;
    }
    if (eat("--scenario=", value)) {
      if (value.empty()) Usage(prog, 2);
      opts.scenario = std::string(value);
      continue;
    }
    // The three plug-in specs are validated by building them once, so a
    // malformed spec fails here instead of in the middle of a sweep.
    const auto spec_flag = [&](std::string_view flag, std::string& field,
                               const auto& build) {
      if (!eat(flag, value)) return false;
      try {
        (void)build(std::string(value));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: bad %.*s value: %s\n", prog,
                     static_cast<int>(flag.size() - 1), flag.data(), e.what());
        Usage(prog, 2);
      }
      field = std::string(value);
      return true;
    };
    if (spec_flag("--scheduler=", opts.hog.scheduler, sched::CreatePolicy) ||
        spec_flag("--topology=", opts.hog.topology,
                  net::topo::CreateTopology) ||
        spec_flag("--detector=", opts.hog.detector,
                  [](const std::string& spec) {
                    return health::CreateDetector(spec, kMinute);
                  })) {
      continue;
    }
    if (eat("--repl-target=", value)) {
      const std::optional<double> target = ParseNumber(value);
      if (!target || *target < 0 || *target >= 1) {
        std::fprintf(stderr,
                     "%s: bad --repl-target value '%s' (want 0 <= A < 1)\n",
                     prog, std::string(value).c_str());
        Usage(prog, 2);
      }
      opts.hog.repl_target = *target;
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\n", prog,
                 std::string(arg).c_str());
    Usage(prog, 2);
  }
  return opts;
}

std::string PerRunOutPath(const std::string& base, std::string_view config,
                          std::uint64_t seed, bool single_run) {
  if (single_run) return base;
  std::string suffix = "." + std::string(config) + ".s" + std::to_string(seed);
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  // Only a '.' inside the final path component is an extension.
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

namespace {

void WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Runs the sweep, writes the BENCH_<spec.name>.json baseline (or
/// opts.out), and prints one summary line per (config, metric): mean ±
/// ci95 and p50/p95/p99, or "not measured" when no run measured it.
/// Throws std::runtime_error naming the path when the BENCH JSON or a
/// requested --metrics-out/--trace-out file cannot be written.
SweepResult RunBenchSweep(const BenchOptions& opts, const SweepSpec& spec,
                          const RunFn& fn) {
  // Per-run observability capture: wrap the run function in an
  // obs::RunCapture scope so the Simulation each run constructs delivers
  // its metrics snapshot / trace export, then write them out under the
  // per-run path. Runs execute on distinct sweep-pool threads with
  // distinct (config, seed) pairs, so the captures and file writes never
  // race. With neither flag set the wrapper is bypassed entirely.
  RunFn run = fn;
  const bool want_metrics = !opts.metrics_out.empty();
  const bool want_trace = !opts.trace_out.empty();
  if (want_metrics || want_trace) {
    const bool single_run = spec.configs * spec.seeds.size() == 1;
    run = [&, want_metrics, want_trace, single_run](std::size_t config,
                                                    std::uint64_t seed) {
      obs::RunCapture capture(want_metrics, want_trace);
      Metrics metrics = fn(config, seed);
      const std::string label = spec.Label(config);
      if (capture.delivered()) {
        if (want_metrics) {
          WriteTextFile(PerRunOutPath(opts.metrics_out, label, seed,
                                      single_run),
                        capture.metrics_json());
        }
        if (want_trace) {
          WriteTextFile(PerRunOutPath(opts.trace_out, label, seed, single_run),
                        capture.trace_json());
        }
      } else {
        HOG_LOG(kWarn, 0, "bench")
            << "run " << label << " seed " << seed
            << " built no Simulation; no obs output written";
      }
      return metrics;
    };
  }
  const SweepResult result = RunSweep(spec, run);
  const std::string path =
      opts.out.empty() ? "BENCH_" + spec.name + ".json" : opts.out;
  WriteTextFile(path, ToBenchJson(spec, result));
  std::printf("\n%s: %zu runs (%zu configs x %zu seeds)\n", path.c_str(),
              result.runs.size(), spec.configs, spec.seeds.size());
  for (std::size_t c = 0; c < result.summaries.size(); ++c) {
    const std::string label = spec.Label(c);
    for (const MetricSummary& m : result.summaries[c]) {
      if (m.stats.count() == 0) {
        std::printf("  %-24s %-20s not measured\n", label.c_str(),
                    m.name.c_str());
        continue;
      }
      std::printf("  %-24s %-20s mean %.6g +-%.3g  [p50 %.6g p95 %.6g p99 "
                  "%.6g]\n",
                  label.c_str(), m.name.c_str(), m.stats.mean(),
                  m.ci95_halfwidth, m.p50, m.p95, m.p99);
    }
  }
  return result;
}

/// Loads opts.scenario; an empty path yields an empty Scenario. Unreadable
/// files and parse errors print the "<path>:<line>:<col>: ..." diagnostic
/// and exit with status 2 — a broken scenario file should fail the
/// experiment up front, not mid-sweep.
fault::Scenario LoadBenchScenario(const BenchOptions& opts) {
  if (opts.scenario.empty()) return {};
  try {
    return fault::LoadScenarioFile(opts.scenario);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad --scenario: %s\n", e.what());
    std::exit(2);
  }
}

void TrimSeeds(std::vector<std::uint64_t>& seeds, FastSeeds keep) {
  if (keep == FastSeeds::kFirst) {
    seeds.resize(1);
  } else if (keep == FastSeeds::kFirstAndLast && seeds.size() > 2) {
    seeds = {seeds.front(), seeds.back()};
  }
}

}  // namespace

int RunExperiment(const Experiment& experiment, int argc,
                  char* const* argv) {
  BenchOptions opts = ParseBenchOptions(argc, argv);
  const char* prog = argc > 0 ? argv[0] : "hogbench";
  if (!experiment.takes_scenario && !opts.scenario.empty()) {
    std::fprintf(stderr,
                 "%s: --scenario is not injected into this experiment's "
                 "runs\n",
                 prog);
    return 2;
  }
  if (opts.fast) TrimSeeds(opts.seeds, experiment.fast_seeds);
  try {
    const Setup setup{opts, LoadBenchScenario(opts)};
    Plan plan = experiment.plan(setup);
    if (opts.fast) {
      std::erase_if(plan.configs, [](const Config& c) { return !c.fast; });
    }
    SweepSpec spec;
    spec.name = std::string(experiment.name);
    spec.seeds = opts.seeds;
    spec.threads = opts.threads;
    spec.configs = plan.configs.size();
    for (const Config& config : plan.configs) {
      spec.config_labels.push_back(config.label);
    }
    std::printf("%s\n", std::string(experiment.title).c_str());
    if (!setup.scenario.empty()) {
      std::printf("(scenario \"%s\": %zu action(s))\n",
                  setup.scenario.name.c_str(), setup.scenario.actions.size());
    }
    if (!plan.preface.empty()) std::printf("\n%s", plan.preface.c_str());
    const SweepResult result = RunBenchSweep(
        opts, spec, [&plan](std::size_t config, std::uint64_t seed) {
          try {
            return plan.configs[config].run(seed);
          } catch (const std::exception& e) {
            throw std::runtime_error(plan.configs[config].label + " seed " +
                                     std::to_string(seed) + ": " + e.what());
          }
        });
    if (!plan.columns.empty()) {
      std::printf("\n");
      RenderTable(plan, spec, result).Print(std::cout);
    }
    if (plan.notes) plan.notes(spec, result);
    if (!plan.gated()) return 0;
    const std::vector<std::string> failures =
        EvaluateGates(plan, spec, result);
    for (const std::string& failure : failures) {
      std::printf("GATE FAIL: %s\n", failure.c_str());
    }
    if (!failures.empty()) {
      std::printf("\n%s FAILED: %zu gate failure(s) in %zu runs\n",
                  spec.name.c_str(), failures.size(), result.runs.size());
      return 1;
    }
    std::printf("\n%s PASSED: %zu runs, every gate held\n",
                spec.name.c_str(), result.runs.size());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s: error: %s\n", prog, e.what());
    return 1;
  }
}

int HogbenchMain(int argc, char* const* argv) {
  const std::string_view first = argc > 1 ? argv[1] : "";
  if (first == "--list") {
    for (const Experiment* experiment : Experiments()) {
      std::printf("%-26s %s\n", std::string(experiment->name).c_str(),
                  std::string(experiment->title).c_str());
    }
    return 0;
  }
  if (first.empty() || first == "--help" || first == "-h") {
    std::fprintf(first.empty() ? stderr : stdout,
                 "usage: hogbench EXPERIMENT [flags]  (hogbench EXPERIMENT "
                 "--help lists the flags)\n"
                 "       hogbench --list              (every experiment)\n");
    return first.empty() ? 2 : 0;
  }
  const Experiment* experiment = FindExperiment(first);
  if (experiment == nullptr) {
    std::fprintf(stderr,
                 "hogbench: unknown experiment '%s' (hogbench --list names "
                 "them)\n",
                 std::string(first).c_str());
    return 2;
  }
  // The experiment's flags follow its name; "hogbench <name>" stands in
  // for argv[0] in their messages.
  std::string prog = "hogbench " + std::string(first);
  std::vector<char*> args = {prog.data()};
  args.insert(args.end(), argv + 2, argv + argc);
  return RunExperiment(*experiment, static_cast<int>(args.size()),
                       args.data());
}

}  // namespace hogsim::exp
