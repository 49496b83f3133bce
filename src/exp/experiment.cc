#include "src/exp/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/exp/experiments.h"
#include "src/util/strings.h"

namespace hogsim::exp {

namespace {

// The table. Adding an experiment means adding it here (and to
// experiments.h); hogbench --list and check.sh's experiment loop read it.
const Experiment* const kExperiments[] = {
    &kTable1,
    &kTable2,
    &kTable3,
    &kFig4,
    &kFig5Table4,
    &kExpZombieDatanodes,
    &kExpDiskOverflow,
    &kAblationDelayScheduling,
    &kAblationHeartbeat,
    &kAblationMulticopy,
    &kAblationReplication,
    &kAblationSecurity,
    &kAblationSiteAwareness,
    &kScenarioStorm,
    &kSoak,
    &kSched,
    &kScale,
    &kRepl,
    &kTopo,
    &kGray,
};

/// The summary of `metric` in `config`, or nullptr when the sweep has
/// neither.
const MetricSummary* FindSummary(const SweepResult& sweep, std::size_t config,
                                 std::string_view metric) {
  if (config >= sweep.summaries.size()) return nullptr;
  for (const MetricSummary& summary : sweep.summaries[config]) {
    if (summary.name == metric) return &summary;
  }
  return nullptr;
}

std::string Format(const Column& column, double value) {
  if (!std::isfinite(value)) return "-";
  return FormatDouble(value * column.scale, column.decimals) + column.unit;
}

/// " (k/n)" when `summary` covers only k of the config's n seeds, so a
/// mean over the seeds that measured the metric says so.
std::string Coverage(const MetricSummary& summary, const SweepSpec& spec) {
  if (summary.stats.count() >= spec.seeds.size()) return "";
  return " (" + std::to_string(summary.stats.count()) + "/" +
         std::to_string(spec.seeds.size()) + ")";
}

std::string ConfigCell(const Column& column, const SweepSpec& spec,
                       const SweepResult& sweep, std::size_t config) {
  const MetricSummary* summary = FindSummary(sweep, config, column.metric);
  if (summary == nullptr || summary->stats.count() == 0) return "-";
  switch (column.stat) {
    case Stat::kMean:
      return Format(column, summary->stats.mean()) +
             Coverage(*summary, spec);
    case Stat::kCi95:
      return "+-" + Format(column, summary->ci95_halfwidth);
    case Stat::kSeeds: {
      std::string cell;
      for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
        if (s) cell += " / ";
        cell += Format(column, sweep.run(config, s, spec.seeds.size())
                                   .Metric(column.metric));
      }
      return cell;
    }
    case Stat::kRatio: {
      const MetricSummary* base =
          FindSummary(sweep, ConfigIndex(spec, column.of), column.metric);
      if (base == nullptr || base->stats.count() == 0) return "-";
      return Format(column, summary->stats.mean() / base->stats.mean()) +
             Coverage(*summary, spec);
    }
  }
  return "-";
}

}  // namespace

Check Eq(std::string metric, double value) {
  return {.metric = std::move(metric), .bound = value};
}

Check AtMost(std::string metric, double share, std::string per) {
  return {.metric = std::move(metric),
          .bound = share,
          .at_most = true,
          .per = std::move(per)};
}

bool Plan::gated() const {
  if (!relations.empty()) return true;
  for (const Config& config : configs) {
    if (!config.checks.empty()) return true;
  }
  return false;
}

std::span<const Experiment* const> Experiments() { return kExperiments; }

const Experiment* FindExperiment(std::string_view name) {
  for (const Experiment* experiment : kExperiments) {
    if (experiment->name == name) return experiment;
  }
  return nullptr;
}

std::size_t ConfigIndex(const SweepSpec& spec, std::string_view label) {
  std::size_t config = 0;
  while (config < spec.configs && spec.Label(config) != label) ++config;
  return config;
}

const RunRecord* FindRun(const SweepSpec& spec, const SweepResult& result,
                         std::string_view label, std::uint64_t seed) {
  const std::size_t config = ConfigIndex(spec, label);
  const auto s = std::find(spec.seeds.begin(), spec.seeds.end(), seed);
  if (config == spec.configs || s == spec.seeds.end()) return nullptr;
  return &result.run(config, static_cast<std::size_t>(s - spec.seeds.begin()),
                     spec.seeds.size());
}

double ConfigMean(const SweepSpec& spec, const SweepResult& sweep,
                  std::string_view label, std::string_view metric) {
  const std::size_t config = ConfigIndex(spec, label);
  if (config == spec.configs) {
    throw std::out_of_range("no config \"" + std::string(label) +
                            "\" in the sweep");
  }
  return sweep.Mean(config, metric);
}

TextTable RenderTable(const Plan& plan, const SweepSpec& spec,
                      const SweepResult& sweep) {
  const bool per_seed = spec.configs == 1;
  std::vector<std::string> header = {per_seed ? "seed" : "config"};
  for (const Column& column : plan.columns) {
    bool reported = false;
    for (std::size_t c = 0; c < spec.configs; ++c) {
      reported = reported || FindSummary(sweep, c, column.metric) != nullptr;
    }
    if (!reported) {
      throw std::out_of_range("column \"" + column.header +
                              "\": no config reports \"" + column.metric +
                              "\"");
    }
    header.push_back(column.header);
  }
  TextTable table(std::move(header));
  if (per_seed) {
    for (const RunRecord& run : sweep.runs) {
      std::vector<std::string> row = {std::to_string(run.seed)};
      for (const Column& column : plan.columns) {
        const bool value =
            column.stat == Stat::kMean || column.stat == Stat::kSeeds;
        row.push_back(value ? Format(column, run.Metric(column.metric)) : "-");
      }
      table.AddRow(std::move(row));
    }
    return table;
  }
  for (std::size_t c = 0; c < spec.configs; ++c) {
    const std::string& name = plan.configs[c].name;
    std::vector<std::string> row = {name.empty() ? spec.Label(c) : name};
    for (const Column& column : plan.columns) {
      row.push_back(ConfigCell(column, spec, sweep, c));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

std::vector<std::string> EvaluateGates(const Plan& plan,
                                       const SweepSpec& spec,
                                       const SweepResult& result) {
  std::vector<std::string> failures;
  for (const RunRecord& run : result.runs) {
    for (const Check& check : plan.configs[run.config_index].checks) {
      const double value = run.Metric(check.metric);
      const double bound =
          check.per.empty() ? check.bound
                            : check.bound * run.Metric(check.per);
      if (check.at_most ? value <= bound : value == bound) continue;
      const char* op = check.at_most ? "<=" : "==";
      char want[160];
      if (check.per.empty()) {
        std::snprintf(want, sizeof(want), "%s %g", op, bound);
      } else {
        std::snprintf(want, sizeof(want), "%s %g x %s (%g)", op, check.bound,
                      check.per.c_str(), bound);
      }
      char line[400];
      std::snprintf(line, sizeof(line), "%s seed %llu: %s = %g, want %s",
                    spec.Label(run.config_index).c_str(),
                    static_cast<unsigned long long>(run.seed),
                    check.metric.c_str(), value, want);
      failures.push_back(line);
    }
  }
  for (const Relation& relation : plan.relations) {
    relation(spec, result, failures);
  }
  return failures;
}

}  // namespace hogsim::exp
