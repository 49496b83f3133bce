// compare_bench — check a BENCH_*.json file against its baseline, exactly.
//
//   compare_bench BASELINE.json CANDIDATE.json
//
// exp::CompareBench matches runs by (config, seed) and requires every
// deterministic metric equal. Each difference prints as one row; host.*
// rows print as per-config means and are never compared. Exit 0: same;
// exit 1: a difference, or no candidate runs; exit 2: usage or parse error.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "src/exp/bench_compare.h"
#include "src/obs/json_util.h"
#include "src/util/strings.h"
#include "src/util/table.h"

using namespace hogsim;

namespace {

/// `v` as the BENCH files write it ("%.17g", NaN as null); "-" when absent.
std::string Show(std::optional<double> v) {
  return v ? obs::JsonNumber(*v) : "-";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
    std::fprintf(stderr,
                 "usage: compare_bench BASELINE.json CANDIDATE.json\n");
    return 2;
  }
  exp::BenchFile baseline, candidate;
  try {
    baseline = exp::LoadBenchJson(argv[1]);
    candidate = exp::LoadBenchJson(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compare_bench: %s\n", e.what());
    return 2;
  }
  if (baseline.name != candidate.name) {
    std::fprintf(stderr,
                 "compare_bench: warning: comparing '%s' against '%s'\n",
                 baseline.name.c_str(), candidate.name.c_str());
  }

  const exp::BenchComparison cmp = exp::CompareBench(baseline, candidate);
  std::printf("compare_bench: %s vs %s: %zu candidate runs, %zu "
              "deterministic values, %zu baseline runs not run\n\n",
              argv[1], argv[2], cmp.candidate_runs, cmp.compared_values,
              cmp.untaken_runs);
  TextTable host({"config", "host metric (not compared)", "baseline mean",
                  "candidate mean"});
  for (const exp::HostMean& h : cmp.host) {
    host.AddRow({h.config, h.metric, FormatDouble(h.baseline, 4),
                 FormatDouble(h.candidate, 4)});
  }
  if (host.rows() > 0) host.Print(std::cout);
  TextTable table(
      {"config", "seed", "metric", "baseline", "candidate", "delta"});
  for (const exp::BenchDifference& d : cmp.differences) {
    std::optional<double> delta;
    if (d.baseline && d.candidate) delta = *d.candidate - *d.baseline;
    table.AddRow({d.config, std::to_string(d.seed),
                  d.metric.empty() ? "(run not in baseline)" : d.metric,
                  Show(d.baseline), Show(d.candidate), Show(delta)});
  }
  if (table.rows() > 0) table.Print(std::cout);
  if (!cmp.Same()) {
    std::printf("\nFAIL: %zu difference(s)%s.\n", cmp.differences.size(),
                cmp.candidate_runs == 0 ? ", and no candidate runs" : "");
    return 1;
  }
  std::printf("\nSame: every candidate run equals its baseline run.\n");
  return 0;
}
