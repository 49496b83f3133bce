// Chaos drill: run a job through a declarative fault scenario
// (src/fault). The default scenario, scenarios/site_storm.txt, reenacts
// the §III.B.1 site-failure drill and worse — 80% of a site preempted
// with zombies left behind, acquisition frozen and throttled, a second
// site half-evicted with its WAN uplink degraded, plus steady background
// churn — and this drill verifies HOG absorbs all of it: replicas
// re-replicated, lost maps re-executed, no data missing.
//
//   example_chaos_drill [scenario-file]      (run from the repo root)
#include <cstdio>
#include <exception>

#include "src/exp/paper_runs.h"
#include "src/hog/hog_cluster.h"
#include "src/workload/runner.h"

using namespace hogsim;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "scenarios/site_storm.txt";
  fault::Scenario scenario;
  try {
    scenario = fault::LoadScenarioFile(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n(run from the repo root, or pass a scenario "
                 "file as the first argument)\n", e.what());
    return 2;
  }
  std::printf("Scenario '%s': %zu action(s)\n", scenario.name.c_str(),
              scenario.actions.size());

  hog::HogCluster hog(/*seed=*/99);
  hog.RequestNodes(80);
  if (!hog.WaitForNodes(78, 4 * kHour)) return 1;

  const hdfs::FileId input = hog.namenode().ImportFile("drill-data",
                                                       60 * 64 * kMiB);
  std::printf("Input loaded: %zu blocks, replication %d, site-aware "
              "placement '%s'\n",
              hog.namenode().GetFileBlocks(input).size(),
              hog.config().hdfs.default_replication,
              hog.namenode().policy().name().c_str());

  mr::JobSpec spec;
  spec.name = "drill-job";
  spec.input = input;
  spec.num_reduces = 15;
  const mr::JobId job = hog.jobtracker().SubmitJob(spec);

  // Arm at submission: the scenario's clock starts now, so "at 120s" in
  // the file means two minutes into the job.
  const auto injector = exp::ArmScenario(hog, scenario);

  workload::RunSimUntil(hog.sim(),
                        [&] { return hog.jobtracker().AllJobsDone(); },
                        hog.sim().now() + 8 * kHour);

  const mr::JobInfo& info = hog.jobtracker().job(job);
  std::printf("\nJob '%s': %s in %s\n", info.spec.name.c_str(),
              info.state == mr::JobState::kSucceeded ? "SUCCEEDED" : "FAILED",
              FormatDuration(info.ResponseTime()).c_str());
  std::printf("  faults injected: %llu (skipped: %llu)\n",
              static_cast<unsigned long long>(injector->injected()),
              static_cast<unsigned long long>(injector->skipped()));
  std::printf("  trackers lost: %llu, maps re-executed: %llu\n",
              static_cast<unsigned long long>(
                  hog.jobtracker().trackers_declared_lost()),
              static_cast<unsigned long long>(
                  hog.jobtracker().maps_reexecuted()));
  std::printf("  namenode: %llu re-replications (%s), missing blocks: %zu\n",
              static_cast<unsigned long long>(
                  hog.namenode().replications_completed()),
              FormatBytes(hog.namenode().replication_bytes()).c_str(),
              hog.namenode().missing_blocks());
  std::printf("  grid self-healed back to %d workers (%d zombies left)\n",
              hog.grid().running_nodes(), hog.grid().zombie_nodes());
  const bool clean = info.state == mr::JobState::kSucceeded &&
                     hog.namenode().missing_blocks() == 0;
  std::printf("\n%s\n", clean
                            ? "Storm absorbed: no data loss, job completed "
                              "(replication 10 and site-aware placement "
                              "did their job)."
                            : "Drill FAILED");
  return clean ? 0 : 1;
}
