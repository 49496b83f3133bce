// Elastic scaling (§IV.C): grow a running HOG from 30 to 120 glideins by
// submitting more Condor jobs while a workload runs, use the HDFS balancer
// to push data onto the fresh (empty) nodes, then shrink back. Shows the
// namenode's view of capacity and the balancer's block moves.
#include <cstdio>

#include "src/hdfs/balancer.h"
#include "src/hog/hog_cluster.h"
#include "src/workload/runner.h"

using namespace hogsim;

namespace {

void PrintState(hog::HogCluster& hog, const char* phase) {
  Bytes used = 0, cap = 0;
  int counted = 0;
  for (auto id : hog.grid().RunningNodeIds()) {
    const auto& disk = hog.grid().node(id)->disk();
    used += disk.used();
    cap += disk.capacity();
    ++counted;
  }
  std::printf("[%8s] t=%-8s workers=%-4d hdfs-used=%-9s of %-9s "
              "under-replicated=%zu\n",
              phase, FormatDuration(hog.sim().now()).c_str(), counted,
              FormatBytes(used).c_str(), FormatBytes(cap).c_str(),
              hog.namenode().under_replicated());
}

}  // namespace

int main() {
  hog::HogCluster hog(/*seed=*/7);

  // Start small.
  hog.RequestNodes(30);
  if (!hog.WaitForNodes(30, 4 * kHour)) return 1;
  const hdfs::FileId input = hog.namenode().ImportFile("data", 40 * 64 * kMiB);
  (void)input;
  PrintState(hog, "small");

  // Grow: "If users want to increase the number of nodes in the HOG, they
  // can submit more Condor jobs for extra nodes."
  hog.RequestNodes(120);
  if (!hog.WaitForNodes(110, hog.sim().now() + 4 * kHour)) return 1;
  PrintState(hog, "grown");

  // "They can use the HDFS balancer to balance the data distribution."
  hdfs::BalancerConfig bal_config;
  bal_config.threshold = 0.001;  // demo dataset is small relative to disks
  bal_config.max_concurrent_moves = 10;
  hdfs::Balancer balancer(hog.namenode(), bal_config);
  balancer.Start();
  hog.sim().RunUntil(hog.sim().now() + 30 * kMinute);
  balancer.Stop();
  std::printf("balancer: %llu block moves, %s shifted to new nodes\n",
              static_cast<unsigned long long>(balancer.moves_completed()),
              FormatBytes(balancer.bytes_moved()).c_str());
  PrintState(hog, "balanced");

  // Run a job at full size.
  mr::JobSpec spec;
  spec.name = "elastic-job";
  spec.input = input;
  spec.num_reduces = 10;
  hog.jobtracker().SubmitJob(spec);
  workload::RunSimUntil(hog.sim(),
                        [&] { return hog.jobtracker().AllJobsDone(); },
                        hog.sim().now() + 4 * kHour);
  PrintState(hog, "ran-job");

  // Shrink: removing worker-node jobs releases grid resources. An abrupt
  // 120 -> 40 condor_rm can evict every replica of a block faster than the
  // replication monitor copies it away — exactly the open problem §VI
  // flags ("to shrink and grow HOG, we need to consider how the data
  // blocks will be moved and replicated"). A careful operator shrinks in
  // stages, letting re-replication catch up between steps.
  for (int target : {90, 65, 40}) {
    hog.RequestNodes(target);
    workload::RunSimUntil(
        hog.sim(), [&] { return hog.grid().running_nodes() <= target; },
        hog.sim().now() + kHour);
    // Give the namenode time to notice the departures (heartbeat recheck),
    // then wait for the replication monitor to drain the deficit.
    hog.sim().RunUntil(hog.sim().now() +
                       2 * hog.config().hdfs.heartbeat_recheck);
    workload::RunSimUntil(
        hog.sim(), [&] { return hog.namenode().under_replicated() == 0; },
        hog.sim().now() + 2 * kHour);
    std::printf("  staged shrink to %d: under-replicated drained, missing "
                "blocks: %zu\n",
                target, hog.namenode().missing_blocks());
  }
  PrintState(hog, "shrunk");
  std::printf("missing blocks after staged shrink: %zu (replication %d plus "
              "staging keeps data safe through the contraction)\n",
              hog.namenode().missing_blocks(),
              hog.config().hdfs.default_replication);
  return hog.namenode().missing_blocks() == 0 ? 0 : 1;
}
