// Tests for the HOG façade: configuration propagation (§III.B), site
// awareness on the grid, zombie end-to-end behaviour (§IV.D.1), the
// availability trace semantics (Fig. 5), and elastic resizing (§IV.C).
#include <gtest/gtest.h>

#include "src/hog/hog_cluster.h"
#include "src/workload/runner.h"

namespace hogsim::hog {
namespace {

constexpr SimTime kDeadline = 4 * kHour;

std::vector<grid::SiteConfig> QuietSites() {
  auto sites = DefaultOsgSites();
  for (auto& site : sites) {
    site.node_mtbf_s = 1e9;
    site.burst_interval_s = 0;
    site.queue_delay_mean_s = 30.0;
  }
  return sites;
}

TEST(HogConfiguration, PropagatesPaperModifications) {
  HogConfig config;
  config.sites = QuietSites();
  HogCluster hog(1, config);
  EXPECT_EQ(hog.namenode().config().default_replication, 10);
  EXPECT_EQ(hog.namenode().config().heartbeat_recheck, 30 * kSecond);
  EXPECT_EQ(hog.namenode().config().disk_check_interval, 3 * kMinute);
  EXPECT_EQ(hog.jobtracker().config().tracker_expiry, 30 * kSecond);
  EXPECT_EQ(hog.namenode().policy().name(), "hog-site-aware");
}

// config.quarantine is the one switch: empty builds no Quarantine, engaged
// builds one.
TEST(HogConfiguration, QuarantineRunsOnlyWhenEngaged) {
  HogConfig config;
  config.sites = QuietSites();
  HogCluster plain(1, config);
  EXPECT_EQ(plain.quarantine(), nullptr);
  config.quarantine.emplace();
  HogCluster guarded(1, config);
  EXPECT_NE(guarded.quarantine(), nullptr);
}

TEST(HogConfiguration, SiteAwarenessOffFallsBackToFlat) {
  HogConfig config;
  config.sites = QuietSites();
  config.site_awareness = false;
  HogCluster hog(1, config);
  EXPECT_EQ(hog.namenode().policy().name(), "default-rack-aware");
}

TEST(HogTopology, WorkersResolveToDnsSites) {
  HogConfig config;
  config.sites = QuietSites();
  HogCluster hog(2, config);
  hog.RequestNodes(25);
  ASSERT_TRUE(hog.WaitForNodes(25, kDeadline));
  hog.sim().RunUntil(hog.sim().now() + 10 * kSecond);
  // Every registered datanode's rack is one of the DNS-derived site names;
  // the two Fermilab clusters fold into /fnal.gov.
  std::set<std::string> racks;
  for (hdfs::DatanodeId id = 0; id < hog.namenode().datanode_count(); ++id) {
    racks.insert(hog.namenode().datanode(id).rack);
  }
  for (const auto& rack : racks) {
    EXPECT_TRUE(rack == "/fnal.gov" || rack == "/ucsd.edu" ||
                rack == "/aglt2.org" || rack == "/mit.edu")
        << rack;
  }
}

TEST(HogElasticity, GrowAndShrink) {
  HogConfig config;
  config.sites = QuietSites();
  HogCluster hog(3, config);
  hog.RequestNodes(20);
  ASSERT_TRUE(hog.WaitForNodes(20, kDeadline));
  hog.RequestNodes(60);
  ASSERT_TRUE(hog.WaitForNodes(60, kDeadline));
  EXPECT_GE(hog.grid().running_nodes(), 60);
  hog.RequestNodes(10);
  ASSERT_TRUE(workload::RunSimUntil(
      hog.sim(), [&] { return hog.grid().running_nodes() <= 10; },
      kDeadline));
}

TEST(HogElasticity, Listing1SubmitFileWorksEndToEnd) {
  HogConfig config;
  config.sites = QuietSites();
  HogCluster hog(4, config);
  grid::CondorSubmit submit;
  submit.universe = "vanilla";
  submit.executable = "wrapper.sh";
  submit.resources = {"UCSDT2", "MIT_CMS"};
  submit.queue_count = 12;
  hog.Submit(submit);
  ASSERT_TRUE(hog.WaitForNodes(12, kDeadline));
  // All nodes must be at the two requested sites.
  for (auto id : hog.grid().RunningNodeIds()) {
    const auto& host = hog.grid().node(id)->hostname();
    EXPECT_TRUE(host.ends_with("ucsd.edu") || host.ends_with("mit.edu"))
        << host;
  }
}

TEST(HogZombie, WithFixZombiesSelfTerminate) {
  HogConfig config;
  config.sites = QuietSites();
  for (auto& site : config.sites) site.node_mtbf_s = 600.0;
  config.grid.zombie_probability = 1.0;
  // The fix is on.
  config.hdfs.disk_check_interval = config.mr.disk_check_interval =
      3 * kMinute;
  HogCluster hog(5, config);
  hog.RequestNodes(20);
  ASSERT_TRUE(hog.WaitForNodes(20, kDeadline));
  hog.sim().RunUntil(hog.sim().now() + 30 * kMinute);
  EXPECT_GT(hog.grid().zombie_events(), 0u);
  // Probe interval 3 min: zombies drain within one interval of appearing,
  // so only the freshest few may linger (creation rate ~1/30 s here).
  EXPECT_LE(hog.grid().zombie_nodes(), 6);
  EXPECT_LT(hog.grid().zombie_nodes(),
            static_cast<int>(hog.grid().zombie_events()) / 4);
}

TEST(HogZombie, WithoutFixZombiesAccumulate) {
  HogConfig config;
  config.sites = QuietSites();
  for (auto& site : config.sites) site.node_mtbf_s = 600.0;
  config.grid.zombie_probability = 1.0;
  // Stock daemons never probe.
  config.hdfs.disk_check_interval = config.mr.disk_check_interval = 0;
  HogCluster hog(5, config);
  hog.RequestNodes(20);
  ASSERT_TRUE(hog.WaitForNodes(20, kDeadline));
  hog.sim().RunUntil(hog.sim().now() + 30 * kMinute);
  EXPECT_GT(hog.grid().zombie_events(), 5u);
  EXPECT_EQ(hog.grid().zombie_nodes(),
            static_cast<int>(hog.grid().zombie_events()))
      << "without the fix every zombie haunts the cluster forever";
}

TEST(HogTrace, ReportedNodesLagActualOnPreemption) {
  HogConfig config;
  config.sites = QuietSites();
  HogCluster hog(6, config);
  hog.RequestNodes(30);
  ASSERT_TRUE(hog.WaitForNodes(30, kDeadline));
  hog.sim().RunUntil(hog.sim().now() + 30 * kSecond);
  hog.StartAvailabilityTrace();
  const SimTime t0 = hog.sim().now();
  // Evict a third of site 0 instantly.
  hog.sim().ScheduleAfter(kMinute, [&] {
    hog.grid().PreemptSiteFraction(0, 1.0);
  });
  hog.sim().RunUntil(t0 + 10 * kMinute);
  // Ground truth dips below 30 immediately after the preemption...
  const double actual_low = hog.actual_nodes().At(t0 + kMinute + 5 * kSecond);
  EXPECT_LT(actual_low, 30);
  // ...but the jobtracker still reports the dead trackers for up to 30 s
  // (the paper's "fluctuated above" effect), then converges.
  const double reported_just_after =
      hog.reported_nodes().At(t0 + kMinute + 5 * kSecond);
  EXPECT_GT(reported_just_after, actual_low);
  const double reported_later = hog.reported_nodes().At(t0 + 3 * kMinute);
  EXPECT_LE(reported_later, actual_low + 30 - actual_low + 1);
  // Replacements eventually restore the target.
  ASSERT_TRUE(workload::RunSimUntil(
      hog.sim(), [&] { return hog.grid().running_nodes() >= 30; },
      kDeadline));
}

TEST(HogWorkload, SmallFacebookSliceRunsOnHog) {
  // A miniature end-to-end: bins 1-3 only, quiet grid.
  HogConfig config;
  config.sites = QuietSites();
  HogCluster hog(7, config);
  hog.RequestNodes(25);
  ASSERT_TRUE(hog.WaitForNodes(25, kDeadline));
  Rng rng(7);
  workload::WorkloadConfig wl;
  auto schedule = workload::GenerateFacebookSchedule(rng, wl);
  schedule.erase(std::remove_if(schedule.begin(), schedule.end(),
                                [](const auto& j) { return j.bin > 3; }),
                 schedule.end());
  workload::WorkloadRunner runner(hog.sim(), hog.jobtracker(), hog.namenode(),
                                  wl);
  runner.PrepareInputs(schedule);
  runner.SubmitAll(schedule);
  const auto result = runner.Run(hog.sim().now() + 6 * kHour);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.succeeded, 68);  // 38 + 16 + 14
  EXPECT_EQ(result.failed, 0);
  EXPECT_GT(result.response_time_s, 0);
  // Per-bin stats populated for exactly bins 1-3.
  EXPECT_EQ(result.per_bin_response_s.size(), 3u);
}

// SpinUp on stable sites whose pools hold exactly 20 glideins: the
// target when it is reachable, 95% of it after the first wait when only
// that is, and failure at the end of the second wait otherwise.
HogConfig TwentySlotGrid() {
  HogConfig config;
  config.sites = QuietSites();
  config.sites.resize(2);
  for (auto& site : config.sites) site.pool_size = 10;
  return config;
}

TEST(HogSpinUp, ReachableTargetReturnsBeforeFirstWaitEnds) {
  HogCluster hog(3, TwentySlotGrid());
  EXPECT_TRUE(hog.SpinUp(20));
  EXPECT_GE(hog.grid().running_nodes(), 20);
  EXPECT_LT(hog.sim().now(), kSpinUpWait);
}

TEST(HogSpinUp, FallsBackToNinetyFivePercentAfterFirstWait) {
  HogCluster hog(3, TwentySlotGrid());
  EXPECT_TRUE(hog.SpinUp(21));  // 95% of 21 is 19 <= 20
  EXPECT_GE(hog.sim().now(), kSpinUpWait);
  EXPECT_LT(hog.sim().now(), 2 * kSpinUpWait);
}

TEST(HogSpinUp, UnreachableTargetFailsAtEndOfSecondWait) {
  HogCluster hog(3, TwentySlotGrid());
  EXPECT_FALSE(hog.SpinUp(25));  // 95% of 25 is 23 > 20
  EXPECT_EQ(hog.sim().now(), 2 * kSpinUpWait);
}

TEST(HogSpinUp, KeepsALargerStandingRequest) {
  HogCluster hog(3, TwentySlotGrid());
  hog.RequestNodes(20);
  EXPECT_TRUE(hog.SpinUp(10));
  EXPECT_EQ(hog.grid().target_nodes(), 20);
}

}  // namespace
}  // namespace hogsim::hog
