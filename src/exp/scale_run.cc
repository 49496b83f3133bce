#include "src/exp/scale_run.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/util/rng.h"
#include "src/workload/facebook.h"

namespace hogsim::exp {

namespace {

/// Peak RSS of this process in MiB; NaN where getrusage is unavailable.
/// The counter is process-wide and monotonic, so in a multi-config sweep
/// a config inherits the peak of everything that ran before it — only the
/// largest config's row is a tight bound, which is the one the baseline
/// gate cares about.
double PeakRssMib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
#endif
#else
  return std::numeric_limits<double>::quiet_NaN();
#endif
}

/// `count` stable sites: no preemption, no bursts, short queue delays.
/// Scale runs measure data-structure asymptotics (heartbeat fan-in, block
/// arenas, flow churn), so grid volatility would only add noise — chaos
/// coverage lives in the fault benches.
std::vector<grid::SiteConfig> StableSites(int count, int pool_per_site) {
  std::vector<grid::SiteConfig> sites;
  sites.reserve(count);
  for (int i = 0; i < count; ++i) {
    grid::SiteConfig site;
    site.resource_name = "SCALE_" + std::to_string(i);
    site.domain = "site" + std::to_string(i) + ".scale.edu";
    site.pool_size = pool_per_site;
    site.queue_delay_mean_s = 60.0;
    site.node_mtbf_s = 1e12;
    site.burst_interval_s = 1e12;
    site.burst_fraction = 0.0;
    sites.push_back(std::move(site));
  }
  return sites;
}

/// Four loadgen size classes (bins 1-4 key the per-bin stats).
std::vector<workload::ScheduledJob> SizeClasses() {
  std::vector<workload::ScheduledJob> shapes;
  for (const int maps : {5, 10, 20, 50}) {
    workload::ScheduledJob job;
    job.bin = static_cast<int>(shapes.size()) + 1;
    job.maps = maps;
    job.reduces = std::max(1, maps / 5);
    job.name = "scale";
    shapes.push_back(std::move(job));
  }
  return shapes;
}

}  // namespace

Metrics RunScaleWorkload(const ScaleConfig& config, std::uint64_t seed,
                         HogRunOptions options) {
  const auto wall_start = std::chrono::steady_clock::now();

  hog::HogConfig hog;
  const int pool = std::max(1, config.nodes / std::max(1, config.sites));
  hog.sites = StableSites(config.sites, pool);

  options.audit = true;
  options.audit_fail_fast = true;
  // A full audit pass is O(cluster); at 10k nodes the default 30 s
  // cadence would dominate the run, so scale runs audit every 10 min
  // plus once at the end.
  options.audit_period = 10 * kMinute;
  HogRun run(seed, std::move(hog), options);
  const bool reached = run.SpinUp(config.nodes);
  if (reached) {
    Rng rng(seed);
    run.Prepare(workload::CycleSchedule(SizeClasses(), config.jobs, rng));
    run.Submit();
    run.Run();
  }
  const HogRunResult result = run.Finish();
  const sim::Simulation& sim = run.cluster().sim();

  Metrics metrics;
  // Deterministic rows first: identical for (config, seed) on any
  // machine and any --threads, so gates and determinism tests can key on
  // them alone.
  metrics.emplace_back("reached_target", reached ? 1.0 : 0.0);
  metrics.emplace_back("jobs_succeeded", result.workload.succeeded);
  metrics.emplace_back("jobs_failed", result.workload.failed);
  metrics.emplace_back("response_s", result.workload.response_time_s);
  metrics.emplace_back("sim_hours", ToSeconds(sim.now()) / 3600.0);
  metrics.emplace_back("executed_events",
                       static_cast<double>(sim.executed()));
  metrics.emplace_back("cancelled_events",
                       static_cast<double>(sim.cancelled()));
  metrics.emplace_back("audit_violations",
                       static_cast<double>(result.audit_violations));

  if (config.host_metrics) {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    metrics.emplace_back("wall_s", wall_s);
    metrics.emplace_back("peak_rss_mib", PeakRssMib());
    metrics.emplace_back(
        "events_per_sec",
        wall_s > 0 ? static_cast<double>(sim.executed()) / wall_s
                   : std::numeric_limits<double>::quiet_NaN());
  }
  return metrics;
}

}  // namespace hogsim::exp
