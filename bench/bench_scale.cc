// Scale grid: nodes x jobs sweeps over the HOG cluster, up to 10k
// glideins across 100 sites — the asymptotics regression gate.
//
// The incremental even-share re-rating, the deadline-heap expiry monitors,
// and the flat block/node arenas all claim O(changed state) costs; this
// bench runs grids large enough that an accidental O(cluster) scan shows
// up in wall-clock and events/sec. Every config arms the fail-fast invariant
// auditor, so a 10k-node run finishing at all is also a correctness
// statement. Every run must also cancel at most 5% as many events as it
// executes: with one completion event per flow, each spin-up download on
// the master's NIC cancelled and rescheduled every other download's event
// (n^2 cancellations), and this gate keeps that storm from coming back.
// BENCH_scale.json commits the trajectory for compare_bench.
//
// Metric split (see src/exp/scale_run.h): deterministic rows
// (executed_events, jobs_succeeded, audit_violations, ...) are byte-stable
// across machines and thread counts; host rows (wall_s, peak_rss_mib,
// events_per_sec) describe the machine the baseline was generated on.
// --no-host-metrics drops the host rows, which makes the output
// byte-comparable across machines and --threads values — that is what the
// check.sh gate and the determinism test run. compare_bench treats the
// baseline's host rows as "missing in candidate", not regressions.
//
//   bench_scale --fast --no-host-metrics   # CI gate grid (small configs)
//   bench_scale                            # full grid incl. 10k x 100
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/exp/bench_main.h"
#include "src/exp/scale_run.h"

using namespace hogsim;

namespace {

struct GridPoint {
  const char* label;
  exp::ScaleConfig config;
};

/// The full grid; --fast runs the first kFastConfigs entries. Fast
/// configs keep the full-grid labels and parameters, so a fast candidate
/// compares row-for-row against the committed full baseline.
constexpr int kFastConfigs = 3;

/// Gate: cancelled_events <= kMaxCancelShare x executed_events per run.
constexpr double kMaxCancelShare = 0.05;

std::vector<GridPoint> Grid() {
  auto point = [](const char* label, int nodes, int sites, int jobs) {
    GridPoint p;
    p.label = label;
    p.config.nodes = nodes;
    p.config.sites = sites;
    p.config.jobs = jobs;
    return p;
  };
  return {
      // CI-sized points (also the --fast grid): nodes and jobs vary
      // independently so each axis has a gate.
      point("500n-5s-30j", 500, 5, 30),
      point("500n-5s-120j", 500, 5, 120),
      point("2000n-20s-30j", 2000, 20, 30),
      // Full-grid points: past the paper's 1101-node experiment, up to
      // the 10k-glidein / 100-site headline run.
      point("2000n-20s-120j", 2000, 20, 120),
      point("10000n-100s-60j", 10000, 100, 60),
  };
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the bench-local flag before the shared parser sees argv.
  bool host_metrics = true;
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-host-metrics") == 0) {
      host_metrics = false;
      continue;
    }
    args.push_back(argv[i]);
  }
  exp::BenchOptions opts = exp::ParseBenchOptions(
      static_cast<int>(args.size()), args.data());

  std::vector<GridPoint> grid = Grid();
  if (opts.fast) grid.resize(kFastConfigs);

  std::vector<std::string> labels;
  for (const GridPoint& p : grid) labels.push_back(p.label);

  std::printf("Scale grid: %zu config(s) x %zu seed(s), auditor armed "
              "(fail-fast)%s\n\n",
              grid.size(), opts.seeds.size(),
              host_metrics ? "" : ", host metrics off");

  exp::SweepSpec spec;
  spec.name = "scale";
  spec.configs = grid.size();
  spec.config_labels = labels;
  const exp::HogRunOptions ropts = exp::HogRunOptionsFrom(opts);
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec,
      [&grid, &ropts, host_metrics](std::size_t config,
                                    std::uint64_t seed) -> exp::Metrics {
        exp::ScaleConfig scale = grid[config].config;
        scale.host_metrics = host_metrics;
        return exp::RunScaleWorkload(scale, seed, ropts);
      });

  // Gate: every run must reach its node target, finish every job, audit
  // clean, and keep its cancellations below kMaxCancelShare of its
  // executed events.
  int bad_runs = 0;
  for (const exp::RunRecord& run : sweep.runs) {
    const double reached = run.Metric("reached_target");
    const double succeeded = run.Metric("jobs_succeeded");
    const double failed = run.Metric("jobs_failed");
    const double violations = run.Metric("audit_violations");
    const double executed = run.Metric("executed_events");
    const double cancelled = run.Metric("cancelled_events");
    const double jobs = grid[run.config_index].config.jobs;
    if (reached == 1.0 && failed == 0 && succeeded == jobs &&
        violations == 0 && cancelled <= kMaxCancelShare * executed) {
      continue;
    }
    ++bad_runs;
    std::printf("SCALE FAIL: %s seed %llu: reached=%g succeeded=%g/%g "
                "failed=%g violations=%g cancelled/executed=%g/%g "
                "(max share %g)\n",
                labels[run.config_index].c_str(),
                static_cast<unsigned long long>(run.seed), reached,
                succeeded, jobs, failed, violations, cancelled, executed,
                kMaxCancelShare);
  }
  if (bad_runs > 0) {
    std::printf("\nscale grid FAILED: %d of %zu runs broke the scale "
                "contract\n", bad_runs, sweep.runs.size());
    return 1;
  }
  std::printf("\nscale grid PASSED: %zu runs, all node targets reached, "
              "all jobs succeeded, audits clean, cancellations <= %g x "
              "executed\n", sweep.runs.size(), kMaxCancelShare);
  return 0;
}
