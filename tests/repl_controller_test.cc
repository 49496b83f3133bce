// Tests for the availability-targeted adaptive replication controller
// (src/hdfs/repl_controller.h): the pure TargetRf math, the per-site
// hazard estimator replaying the committed OSG preemption trace, trim
// safety against the spread floor and zombie holders, and a chaos-soak
// integration run where the controller must keep every block alive while
// storing less than the flat paper RF.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/check/auditor.h"
#include "src/exp/paper_runs.h"
#include "src/fault/random_scenario.h"
#include "src/fault/scenario.h"
#include "src/hdfs/repl_controller.h"
#include "src/hog/hog_cluster.h"
#include "tests/test_cluster.h"

namespace hogsim {
namespace {

using hdfs::ReplController;

// ---- TargetRf: the pure availability math ----------------------------------

TEST(TargetRf, MonotoneInTargetAndClamped) {
  const std::vector<double> q(10, 0.1);  // every copy 10% loss over horizon
  // A vacuous target still yields the floor; an absurd one the cap.
  EXPECT_EQ(ReplController::TargetRf(q, 0.1, 0.0, 3, 10), 3);
  EXPECT_EQ(ReplController::TargetRf(q, 0.1, 1.0, 3, 10), 10);
  int last = 0;
  for (double target : {0.9, 0.99, 0.999, 0.9999, 0.99999, 0.9999999}) {
    const int rf = ReplController::TargetRf(q, 0.1, target, 3, 10);
    EXPECT_GE(rf, last) << "TargetRf must be monotone in the target";
    EXPECT_GE(rf, 3);
    EXPECT_LE(rf, 10);
    last = rf;
  }
  // q=0.1 per copy: rf 3 gives 1e-3 unavailability, rf 4 gives 1e-4
  // (targets sit off the exact boundary to stay float-robust).
  EXPECT_EQ(ReplController::TargetRf(q, 0.1, 0.995, 3, 10), 3);
  EXPECT_EQ(ReplController::TargetRf(q, 0.1, 0.9995, 3, 10), 4);
}

TEST(TargetRf, ReliableHoldersCountBeforeSpares) {
  // Three rock-solid existing replicas already meet the target even
  // though hypothetical extra copies would land somewhere flaky.
  EXPECT_EQ(ReplController::TargetRf({1e-6, 1e-6, 1e-6}, 0.5, 0.999, 3, 10),
            3);
  // Three copies all on flaky sites need spares to make the target:
  // 0.5^3 = 0.125, then spare copies at 0.1 each until 1.25e-4 <= 1e-3.
  EXPECT_EQ(ReplController::TargetRf({0.5, 0.5, 0.5}, 0.1, 0.999, 3, 10), 6);
  // The holder list is sorted internally, so arrival order cannot matter.
  EXPECT_EQ(ReplController::TargetRf({0.5, 1e-6, 0.5}, 0.1, 0.999, 3, 10),
            ReplController::TargetRf({1e-6, 0.5, 0.5}, 0.1, 0.999, 3, 10));
}

TEST(TargetRf, MinimumWinsOverEasyTargets) {
  // Even a trivially met target never drops below the floor: the floor is
  // the two-correlated-failure defense, not an availability statement.
  EXPECT_EQ(ReplController::TargetRf({1e-6, 1e-6, 1e-6, 1e-6, 1e-6}, 1e-6,
                                     0.9, 3, 10),
            3);
  // And an unmeetable target saturates at the cap instead of diverging.
  EXPECT_EQ(ReplController::TargetRf({0.999, 0.999}, 0.999, 0.999999, 3, 10),
            10);
}

// ---- Hazard estimator: replaying the committed OSG trace -------------------

// scenarios/osg_replay.trace kills, per site index of DefaultOsgSites():
// fnal.gov-domain sites 0+1 take 20 nodes, ucsd.edu 6, aglt2.org 3,
// mit.edu 2. The learned per-site hazards must reproduce that ordering.
TEST(ReplEstimator, ConvergesOnOsgReplayTrace) {
  hog::HogConfig config;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 1e9;  // all churn comes from the trace
    site.burst_interval_s = 0;
    site.queue_delay_mean_s = 30.0;
  }
  config.repl.availability_target = 0.999;
  hog::HogCluster cluster(11, config);
  cluster.RequestNodes(40);
  ASSERT_TRUE(cluster.WaitForNodes(40, 4 * kHour));
  ASSERT_NE(cluster.repl_controller(), nullptr);

  const fault::Scenario replay =
      fault::LoadScenarioFile(HOGSIM_SOURCE_DIR "/scenarios/osg_replay.trace");
  const auto injector = exp::ArmScenario(cluster, replay);
  ASSERT_NE(injector, nullptr);

  // The last trace record fires at 2580 s; run past it plus a couple of
  // controller ticks so every death is folded into the accumulators.
  cluster.sim().RunUntil(cluster.sim().now() + 45 * kMinute);

  const ReplController& ctl = *cluster.repl_controller();
  const double fnal = ctl.SiteHazardPerHour("/fnal.gov");
  const double ucsd = ctl.SiteHazardPerHour("/ucsd.edu");
  const double mit = ctl.SiteHazardPerHour("/mit.edu");
  const double prior = ctl.config().prior_hazard_per_hour;
  EXPECT_GT(fnal, ucsd) << "20 deaths vs 6 must rank fnal flakier";
  EXPECT_GT(fnal, mit) << "20 deaths vs 2 must rank fnal flakier";
  EXPECT_GT(fnal, prior) << "a stormed site must rise above the prior";
  EXPECT_GE(mit, prior) << "the prior floors every estimate";
  // An unknown site answers with the prior, never zero.
  EXPECT_EQ(ctl.SiteHazardPerHour("/nowhere.edu"), prior);
}

// ---- Trim safety ------------------------------------------------------------

hdfs::ReplControllerConfig EagerTrimConfig() {
  hdfs::ReplControllerConfig rcfg;
  rcfg.availability_target = 0.999;
  rcfg.warmup = 0;  // tests exercise trimming immediately
  return rcfg;
}

TEST(ReplTrim, ShedsExcessButKeepsFloorAndSpread) {
  hdfs::HdfsConfig config;
  config.default_replication = 10;
  TestCluster h = HdfsCluster(5, 3, config);
  ReplController ctl(h.nn(), EagerTrimConfig());
  ctl.Start();
  const hdfs::FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const hdfs::BlockId block = h.nn().GetFileBlocks(file)[0].block;
  ASSERT_EQ(h.nn().BlockHolders(block).size(), 10u);

  // Quiet cluster at the prior hazard: the target collapses to the floor
  // and the controller trims down to it across successive ticks.
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  const int target = h.nn().BlockReplication(block);
  EXPECT_EQ(target, ctl.config().min_replication);
  const int live = static_cast<int>(h.nn().BlockHolders(block).size());
  // Hysteresis: trimming stops at target + trim_slack, never cuts below.
  EXPECT_LE(live, target + ctl.config().trim_slack);
  EXPECT_GE(live, target);
  EXPECT_GE(static_cast<int>(h.SitesOf(block).size()),
            std::min(ctl.config().min_site_spread, 5));
  EXPECT_GT(ctl.excess_removed(), 0u);
  EXPECT_EQ(ctl.unsafe_trims(), 0u);
  EXPECT_EQ(h.nn().missing_blocks(), 0u);
}

TEST(ReplTrim, ZombieHolderFreezesTrimming) {
  hdfs::HdfsConfig config;
  config.default_replication = 10;
  config.disk_check_interval = 0;  // no probe: the zombie lingers
  TestCluster h = HdfsCluster(5, 3, config);
  ReplController ctl(h.nn(), EagerTrimConfig());
  ctl.Start();
  const hdfs::FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const hdfs::BlockId block = h.nn().GetFileBlocks(file)[0].block;
  const auto holders = h.nn().BlockHolders(block);
  ASSERT_EQ(holders.size(), 10u);

  // One holder's disk dies while its process keeps heartbeating: the
  // namenode still believes in the copy, so trimming any OTHER copy would
  // overestimate the block's redundancy. The controller may lower the
  // target but must not remove a single replica.
  h.datanode(holders[3]).EnterZombieMode();
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  EXPECT_EQ(h.nn().BlockHolders(block).size(), 10u)
      << "no trim may fire while a zombie holder poisons the live count";
  EXPECT_EQ(ctl.excess_removed(), 0u);
  EXPECT_EQ(ctl.unsafe_trims(), 0u);
}

TEST(ReplTrim, WarmupBlocksLoweringButNotRaising) {
  hdfs::HdfsConfig config;
  config.default_replication = 10;
  hdfs::ReplControllerConfig rcfg;
  rcfg.availability_target = 0.999;  // default one-hour warmup
  TestCluster h = HdfsCluster(5, 3, config);
  ReplController ctl(h.nn(), rcfg);
  ctl.Start();
  const hdfs::FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const hdfs::BlockId block = h.nn().GetFileBlocks(file)[0].block;

  // Well inside the warmup the prior would justify the floor, but shedding
  // replicas on an unearned prior is forbidden.
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  EXPECT_EQ(h.nn().BlockReplication(block), 10);
  EXPECT_EQ(h.nn().BlockHolders(block).size(), 10u);
  EXPECT_EQ(ctl.targets_lowered(), 0u);
  EXPECT_EQ(ctl.excess_removed(), 0u);
  // Past the warmup the same quiet evidence finally counts.
  h.sim().RunUntil(h.sim().now() + 60 * kMinute);
  EXPECT_LT(h.nn().BlockReplication(block), 10);
  EXPECT_GT(ctl.targets_lowered(), 0u);
}

// ---- Chaos soak with the controller in charge ------------------------------

TEST(ReplSoak, ControllerKeepsBlocksAliveUnderChaosForLess) {
  hog::HogConfig config;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 1e9;  // all churn comes from the scenario
    site.burst_interval_s = 0;
    site.queue_delay_mean_s = 30.0;
  }
  config.repl.availability_target = 0.999;
  config.repl.warmup = 10 * kMinute;  // the soak is 40 min of chaos
  hog::HogCluster cluster(7, config);
  cluster.RequestNodes(25);
  ASSERT_TRUE(cluster.WaitForNodes(25, 4 * kHour));

  std::vector<hdfs::FileId> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back(
        cluster.namenode().ImportFile("f" + std::to_string(i), 2 * 64 * kMiB));
  }

  check::Auditor::Options aopts;
  aopts.fail_fast = true;
  aopts.period = 15 * kSecond;
  check::Auditor auditor(cluster.sim(), &cluster.namenode(),
                         &cluster.jobtracker(), &cluster.grid(), aopts);
  auditor.set_repl_controller(cluster.repl_controller());
  auditor.Start();

  const fault::Scenario chaos = fault::RandomScenario(1000);
  const auto injector = exp::ArmScenario(cluster, chaos);
  ASSERT_NE(injector, nullptr);

  // Ride out the 40-minute palette, then let healing drain the queue.
  cluster.sim().RunUntil(cluster.sim().now() + 45 * kMinute);
  ASSERT_TRUE(workload::RunSimUntil(
      cluster.sim(),
      [&] { return cluster.namenode().under_replicated() == 0; },
      cluster.sim().now() + 2 * kHour, 5 * kSecond))
      << "the replication queue must drain after the storm";

  // The headline contract: nothing lost, auditor clean, and the adaptive
  // targets actually engaged (raised somewhere, trimmed somewhere) while
  // holding every block at-or-above the floor.
  EXPECT_EQ(cluster.namenode().missing_blocks(), 0u);
  auditor.AuditNow();
  EXPECT_EQ(auditor.violations(), 0u);
  const ReplController& ctl = *cluster.repl_controller();
  EXPECT_GT(ctl.ticks_run(), 0u);
  EXPECT_GT(ctl.targets_lowered() + ctl.excess_removed(), 0u);
  EXPECT_EQ(ctl.unsafe_trims(), 0u);
  int max_rf = 0;
  for (hdfs::FileId file : files) {
    for (const auto& loc : cluster.namenode().GetFileBlocks(file)) {
      const int rf = cluster.namenode().BlockReplication(loc.block);
      EXPECT_GE(rf, ctl.config().min_replication);
      EXPECT_LE(rf, ctl.config().max_replication);
      EXPECT_GE(static_cast<int>(loc.datanodes.size()),
                ctl.config().min_replication);
      max_rf = std::max(max_rf, rf);
    }
  }
  // Storing less than the flat paper RF is the point of the controller.
  EXPECT_LT(max_rf, 10) << "after an hour of evidence no quiet-era block "
                           "should still sit at the flat paper RF";
}

}  // namespace
}  // namespace hogsim
