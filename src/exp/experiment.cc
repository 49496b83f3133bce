#include "src/exp/experiment.h"

#include <algorithm>
#include <cstdio>

#include "src/exp/experiments.h"

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
