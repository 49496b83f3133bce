// The abandoned-daemon story of §IV.D.1, told end to end: run HOG where
// preemptions let double-forked daemons escape the kill, first without the
// working-directory probe (first-iteration HOG: zombies accumulate, tasks
// fail on them, clients waste read timeouts) and then with the 3-minute
// probe fix (zombies shut themselves down). Exits 1 when the verdict is NO.
#include <cstdio>

#include "src/hog/hog_cluster.h"
#include "src/workload/runner.h"

using namespace hogsim;

namespace {

struct DrillResult {
  double response_s = 0;
  std::uint64_t zombie_events = 0;
  int zombies_left = 0;
  bool ok = false;
};

DrillResult Run(bool with_fix) {
  hog::HogConfig config;
  config.grid.zombie_probability = 0.7;  // most preemptions escape the kill
  config.hdfs.disk_check_interval = config.mr.disk_check_interval =
      with_fix ? 3 * kMinute : 0;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) site.node_mtbf_s = 1800.0;
  hog::HogCluster hog(/*seed=*/5, config);
  hog.RequestNodes(40);
  DrillResult result;
  if (!hog.WaitForNodes(38, 4 * kHour)) return result;

  const hdfs::FileId input = hog.namenode().ImportFile("z-data",
                                                       30 * 64 * kMiB);
  mr::JobSpec spec;
  spec.name = "zombie-drill";
  spec.input = input;
  spec.num_reduces = 10;
  const mr::JobId job = hog.jobtracker().SubmitJob(spec);
  workload::RunSimUntil(hog.sim(),
                        [&] { return hog.jobtracker().AllJobsDone(); },
                        hog.sim().now() + 8 * kHour);
  result.response_s = ToSeconds(hog.jobtracker().job(job).ResponseTime());
  result.zombie_events = hog.grid().zombie_events();
  result.zombies_left = hog.grid().zombie_nodes();
  result.ok = hog.jobtracker().job(job).state == mr::JobState::kSucceeded;
  return result;
}

}  // namespace

int main() {
  std::printf("§IV.D.1 drill: double-forked daemons escaping preemption\n\n");
  const DrillResult buggy = Run(/*with_fix=*/false);
  std::printf("WITHOUT the fix: job %s in %.0f s; %llu zombie preemptions, "
              "%d zombies still haunting the pool at the end\n",
              buggy.ok ? "succeeded" : "FAILED", buggy.response_s,
              static_cast<unsigned long long>(buggy.zombie_events),
              buggy.zombies_left);
  const DrillResult fixed = Run(/*with_fix=*/true);
  std::printf("WITH the 3-min working-directory probe: job %s in %.0f s; "
              "%llu zombie preemptions, %d remaining (they shut themselves "
              "down)\n",
              fixed.ok ? "succeeded" : "FAILED", fixed.response_s,
              static_cast<unsigned long long>(fixed.zombie_events),
              fixed.zombies_left);
  const bool drained = buggy.zombies_left > fixed.zombies_left;
  std::printf("\nZombies accumulate without the fix, drain with it: %s\n",
              drained ? "YES" : "NO");
  return drained ? 0 : 1;
}
