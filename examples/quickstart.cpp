// Quickstart: bring up HOG exactly the way the paper does — submit the
// Listing 1 Condor file (scaled down), wait for glideins, load a dataset
// into grid-wide HDFS, and run one MapReduce job.
#include <cstdio>

#include "src/grid/condor.h"
#include "src/hog/hog_cluster.h"
#include "src/workload/runner.h"

using namespace hogsim;

int main() {
  // 1. A HOG deployment: stable central server (namenode + jobtracker +
  //    package repository) plus the five OSG sites of the paper.
  hog::HogCluster hog(/*seed=*/2012);

  // 2. Request workers with a Condor submit description (Listing 1, with
  //    a smaller queue count). The requirements line restricts execution
  //    to sites with publicly reachable worker nodes.
  const grid::CondorSubmit submit = grid::ParseCondorSubmit(R"(
universe = vanilla
requirements = GLIDEIN_ResourceName =?= "FNAL_FERMIGRID" || GLIDEIN_ResourceName =?= "USCMS-FNAL-WC1" || GLIDEIN_ResourceName =?= "UCSDT2" || GLIDEIN_ResourceName =?= "AGLT2" || GLIDEIN_ResourceName =?= "MIT_CMS"
executable = wrapper.sh
should_transfer_files = YES
OnExitRemove = FALSE
x509userproxy = /tmp/x509up_u1384
queue 50
)");
  hog.Submit(submit);
  std::printf("Submitted %d glidein requests to %zu sites...\n",
              submit.queue_count, submit.resources.size());

  if (!hog.WaitForNodes(50, 4 * kHour)) {
    std::fprintf(stderr, "grid did not deliver 50 nodes\n");
    return 1;
  }
  std::printf("HOG is up: %d workers at t=%s (each: 1 map + 1 reduce slot, "
              "datanode with site-aware placement, replication %d)\n",
              hog.grid().running_nodes(),
              FormatDuration(hog.sim().now()).c_str(),
              hog.config().hdfs.default_replication);

  // 3. Load input data into the grid-wide HDFS (16 blocks -> 16 maps).
  const hdfs::FileId input = hog.namenode().ImportFile("demo-input",
                                                       16 * 64 * kMiB);
  std::printf("Imported %s of input as %zu blocks, replication %d\n",
              FormatBytes(hog.namenode().FileSize(input)).c_str(),
              hog.namenode().GetFileBlocks(input).size(),
              hog.namenode().FileReplication(input));

  // 4. Run a MapReduce job. No API differences from stock Hadoop: a job is
  //    a JobSpec, exactly as on the dedicated cluster (§III.B.2).
  mr::JobSpec spec;
  spec.name = "quickstart-wordcount";
  spec.input = input;
  spec.num_reduces = 5;
  const mr::JobId job = hog.jobtracker().SubmitJob(spec);

  workload::RunSimUntil(hog.sim(),
                        [&] { return hog.jobtracker().AllJobsDone(); },
                        hog.sim().now() + 4 * kHour);

  const mr::JobInfo& info = hog.jobtracker().job(job);
  std::printf("\nJob '%s': %s\n", info.spec.name.c_str(),
              info.state == mr::JobState::kSucceeded ? "SUCCEEDED" : "FAILED");
  std::printf("  response time: %s\n",
              FormatDuration(info.ResponseTime()).c_str());
  std::printf("  maps: %d (node-local %d, site-local %d, remote %d)\n",
              info.maps_completed, info.data_local_maps, info.rack_local_maps,
              info.remote_maps);
  std::printf("  reduces: %d, output %s in HDFS\n", info.reduces_completed,
              FormatBytes(hog.namenode().FileSize(info.output_file)).c_str());
  std::printf("  grid preemptions survived: %llu\n",
              static_cast<unsigned long long>(hog.grid().preemptions()));
  return info.state == mr::JobState::kSucceeded ? 0 : 1;
}
