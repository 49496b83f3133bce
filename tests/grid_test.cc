// Unit tests for the opportunistic-grid substrate: Condor submit parsing
// (Listing 1), glidein lifecycle, elastic sizing, preemption, and zombies.
#include <gtest/gtest.h>

#include <string>

#include "src/grid/condor.h"
#include "src/grid/grid.h"

namespace hogsim::grid {
namespace {

// The paper's Listing 1, verbatim (including its line wrapping).
constexpr const char* kListing1 = R"(universe = vanilla
requirements = GLIDEIN_ResourceName =?= "
FNAL_FERMIGRID" || GLIDEIN_ResourceName =?=
"USCMS-FNAL-WC1" || GLIDEIN_ResourceName =?=
"UCSDT2" || GLIDEIN_ResourceName =?= "
AGLT2" || GLIDEIN_ResourceName =?= "MIT_CMS"
executable = wrapper.sh
output = condor_out/out.$(CLUSTER).$(PROCESS)
error = condor_out/err.$(CLUSTER).$(PROCESS)
log = hadoop-grid.log
should_transfer_files = YES
when_to_transfer_output = ON_EXIT_OR_EVICT
OnExitRemove = FALSE
PeriodicHold = false
x509userproxy = /tmp/x509up_u1384
queue 1000
)";

TEST(Condor, ParsesListing1) {
  const CondorSubmit submit = ParseCondorSubmit(kListing1);
  EXPECT_EQ(submit.universe, "vanilla");
  EXPECT_EQ(submit.executable, "wrapper.sh");
  ASSERT_EQ(submit.resources.size(), 5u);
  EXPECT_EQ(submit.resources[0], "FNAL_FERMIGRID");
  EXPECT_EQ(submit.resources[1], "USCMS-FNAL-WC1");
  EXPECT_EQ(submit.resources[2], "UCSDT2");
  EXPECT_EQ(submit.resources[3], "AGLT2");
  EXPECT_EQ(submit.resources[4], "MIT_CMS");
  EXPECT_TRUE(submit.should_transfer_files);
  EXPECT_FALSE(submit.on_exit_remove);
  EXPECT_EQ(submit.x509userproxy, "/tmp/x509up_u1384");
  EXPECT_EQ(submit.queue_count, 1000);
}

TEST(Condor, RoundTrip) {
  const CondorSubmit submit = ParseCondorSubmit(kListing1);
  const CondorSubmit again = ParseCondorSubmit(RenderCondorSubmit(submit));
  EXPECT_EQ(again.resources, submit.resources);
  EXPECT_EQ(again.queue_count, submit.queue_count);
  EXPECT_EQ(again.on_exit_remove, submit.on_exit_remove);
}

TEST(Condor, BareQueueMeansOne) {
  const auto submit = ParseCondorSubmit(
      "universe = vanilla\nexecutable = w.sh\nqueue\n");
  EXPECT_EQ(submit.queue_count, 1);
}

TEST(Condor, CommentsAndBlanksIgnored) {
  const auto submit = ParseCondorSubmit(
      "# a comment\n\nuniverse = vanilla\nexecutable = w.sh\n\nqueue 5\n");
  EXPECT_EQ(submit.queue_count, 5);
}

TEST(Condor, RejectsMissingQueue) {
  EXPECT_THROW(ParseCondorSubmit("universe = vanilla\n"),
               std::invalid_argument);
}

TEST(Condor, RejectsMalformedLine) {
  EXPECT_THROW(ParseCondorSubmit("universe vanilla\nqueue 1\n"),
               std::invalid_argument);
  // The queue count is one whole positive base-10 int.
  for (const char* queue : {"queue 5abc", "queue 2.9", "queue 99999999999",
                            "queue 0", "queue -3"}) {
    EXPECT_THROW(
        ParseCondorSubmit("universe = vanilla\n" + std::string(queue) + "\n"),
        std::invalid_argument)
        << queue;
  }
}

TEST(Condor, RejectsRequirementsWithoutResource) {
  EXPECT_THROW(ParseCondorSubmit("requirements = Memory > 1024\nqueue 1\n"),
               std::invalid_argument);
}

// ---- Grid lifecycle -------------------------------------------------------

class GridTest : public ::testing::Test {
 protected:
  GridTest() : net_(sim_) {
    const net::SiteId central = net_.AddSite(Gbps(10));
    repo_ = net_.AddNode(central, Gbps(1));
  }

  Grid MakeGrid(GridConfig config = {}) {
    return Grid(sim_, net_, repo_, Rng(42), config);
  }

  static SiteConfig QuietSite(std::string name, std::string domain,
                              int pool = 100) {
    SiteConfig site;
    site.resource_name = std::move(name);
    site.domain = std::move(domain);
    site.pool_size = pool;
    site.node_mtbf_s = 1e9;  // effectively no churn
    site.burst_interval_s = 0;
    site.queue_delay_mean_s = 30.0;
    return site;
  }

  sim::Simulation sim_;
  net::FlowNetwork net_;
  net::NodeId repo_ = net::kInvalidNode;
};

TEST_F(GridTest, ReachesTarget) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.AddSite(QuietSite("B", "b.edu"));
  int started = 0;
  grid.set_on_node_start([&](GridNode&) { ++started; });
  grid.SetTargetNodes(20);
  sim_.RunUntil(kHour);
  EXPECT_EQ(grid.running_nodes(), 20);
  EXPECT_EQ(started, 20);
}

TEST_F(GridTest, HostnamesFollowSiteDomains) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "red.unl.edu"));
  std::string first_hostname;
  grid.set_on_node_start([&](GridNode& node) {
    if (first_hostname.empty()) first_hostname = node.hostname();
  });
  grid.SetTargetNodes(1);
  sim_.RunUntil(kHour);
  EXPECT_EQ(first_hostname.find("g0.red.unl.edu"), 0u);
}

TEST_F(GridTest, ShrinkRemovesNodes) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(20);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 20);
  grid.SetTargetNodes(5);
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(grid.running_nodes(), 5);
}

TEST_F(GridTest, PreemptionTriggersReplacement) {
  Grid grid = MakeGrid();
  SiteConfig site = QuietSite("A", "a.edu");
  site.node_mtbf_s = 300.0;  // heavy churn
  grid.AddSite(site);
  int preempted = 0;
  grid.set_on_node_preempt([&](GridNode&) { ++preempted; });
  grid.SetTargetNodes(10);
  sim_.RunUntil(2 * kHour);
  EXPECT_GT(preempted, 10);
  // The manager kept replacing: total leases far exceeds the target, and
  // the pool is still near target.
  EXPECT_GT(grid.total_leases(), 20u);
  EXPECT_GE(grid.running_nodes(), 5);
  EXPECT_EQ(grid.preemptions(), static_cast<std::uint64_t>(preempted));
}

TEST_F(GridTest, PoolCapacityBoundsPlacement) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu", /*pool=*/5));
  grid.SetTargetNodes(50);
  sim_.RunUntil(kHour);
  EXPECT_EQ(grid.running_nodes(), 5);  // saturated at the pool size
}

TEST_F(GridTest, SubmitFileRestrictsSites) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.AddSite(QuietSite("B", "b.edu"));
  CondorSubmit submit;
  submit.universe = "vanilla";
  submit.executable = "wrapper.sh";
  submit.resources = {"B"};
  submit.queue_count = 8;
  std::vector<std::string> hosts;
  grid.set_on_node_start(
      [&](GridNode& node) { hosts.push_back(node.hostname()); });
  grid.Submit(submit);
  sim_.RunUntil(kHour);
  ASSERT_EQ(hosts.size(), 8u);
  for (const auto& h : hosts) {
    EXPECT_NE(h.find("b.edu"), std::string::npos) << h;
  }
}

TEST_F(GridTest, SubmitRejectsUnknownResource) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  CondorSubmit submit;
  submit.resources = {"NOPE"};
  submit.queue_count = 1;
  EXPECT_THROW(grid.Submit(submit), std::invalid_argument);
}

TEST_F(GridTest, ZombiePreemptionLeavesProcessesAlive) {
  GridConfig config;
  config.zombie_probability = 1.0;  // every preemption leaves a zombie
  Grid grid = MakeGrid(config);
  SiteConfig site = QuietSite("A", "a.edu");
  site.node_mtbf_s = 120.0;
  grid.AddSite(site);
  int zombies = 0;
  GridNodeId zombie_id = kInvalidGridNode;
  grid.set_on_node_zombie([&](GridNode& node) {
    ++zombies;
    zombie_id = node.id();
  });
  grid.SetTargetNodes(5);
  sim_.RunUntil(kHour);
  EXPECT_GT(zombies, 0);
  EXPECT_EQ(grid.zombie_nodes(), zombies);
  ASSERT_NE(zombie_id, kInvalidGridNode);
  GridNode* node = grid.node(zombie_id);
  EXPECT_EQ(node->state(), NodeState::kZombie);
  EXPECT_TRUE(node->processes_alive());
  EXPECT_FALSE(node->disk().writable());  // working directory deleted
  // The daemons' self-shutdown (or a later reap) finishes the job.
  grid.KillZombie(zombie_id);
  EXPECT_EQ(node->state(), NodeState::kDead);
  EXPECT_EQ(grid.zombie_nodes(), zombies - 1);
}

TEST_F(GridTest, PreemptSiteFractionEvictsRequestedShare) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.AddSite(QuietSite("B", "b.edu"));
  grid.SetTargetNodes(40);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 40);
  const int before = grid.running_nodes();
  // Count running nodes at site 0 to know the expected eviction size.
  int at_site0 = 0;
  for (GridNodeId id = 0; id < grid.total_leases(); ++id) {
    const GridNode* node = grid.node(id);
    if (node->running() && node->site_index() == 0) ++at_site0;
  }
  grid.PreemptSiteFraction(0, 1.0);  // whole-site outage
  EXPECT_EQ(grid.running_nodes(), before - at_site0);
}

TEST_F(GridTest, PreemptSiteFractionZeroIsNoOp) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(10);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 10);
  EXPECT_EQ(grid.PreemptSiteFraction(0, 0.0), 0);
  EXPECT_EQ(grid.running_nodes(), 10);
  EXPECT_EQ(grid.preemptions(), 0u);
}

TEST_F(GridTest, PreemptSiteFractionSmallSiteEvictsAtLeastOne) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(10);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 10);
  // 4% of 10 nodes rounds to zero, but a non-zero fraction means the
  // burst hit someone: at least one node goes.
  EXPECT_EQ(grid.PreemptSiteFraction(0, 0.04), 1);
  EXPECT_EQ(grid.running_nodes(), 9);
  // Rounding stays a round, not a floor: 25% of 9 -> 2.
  EXPECT_EQ(grid.PreemptSiteFraction(0, 0.25), 2);
}

TEST_F(GridTest, PreemptSiteFractionOnEmptySite) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.AddSite(QuietSite("B", "b.edu"));
  grid.SetTargetNodes(0);
  sim_.RunUntil(kMinute);
  EXPECT_EQ(grid.PreemptSiteFraction(0, 1.0), 0);  // nothing to evict
}

TEST_F(GridTest, PreemptSiteFractionLeavesQueuedNodesAlone) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(10);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 10);
  // Grow the target: the 10 extra leases sit in the site's batch queue.
  grid.SetTargetNodes(20);
  // The burst only evicts RUNNING nodes — the queued ones ride it out and
  // the pool recovers to the full 20.
  EXPECT_EQ(grid.PreemptSiteFraction(0, 1.0), 10);
  EXPECT_EQ(grid.running_nodes(), 0);
  sim_.RunUntil(sim_.now() + kHour);
  EXPECT_EQ(grid.running_nodes(), 20);
}

TEST_F(GridTest, PreemptSiteFractionOnZombieSiteLeavesZombies) {
  GridConfig config;
  config.zombie_probability = 1.0;
  Grid grid = MakeGrid(config);
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(8);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 8);
  EXPECT_EQ(grid.PreemptSiteFraction(0, 0.5), 4);
  EXPECT_EQ(grid.zombie_nodes(), 4);
}

TEST_F(GridTest, PreemptNodesTakesOldestLeasesFirst) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(6);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 6);
  EXPECT_EQ(grid.PreemptNodes(0, 3, ZombieMode::kNever), 3);
  // Leases start in id order, so the oldest three are ids 0..2.
  for (GridNodeId id = 0; id < 3; ++id) {
    EXPECT_FALSE(grid.node(id)->running()) << id;
  }
  for (GridNodeId id = 3; id < 6; ++id) {
    EXPECT_TRUE(grid.node(id)->running()) << id;
  }
  // Asking for more than the site holds clamps to what is there.
  EXPECT_EQ(grid.PreemptNodes(0, 99, ZombieMode::kNever), 3);
  EXPECT_EQ(grid.running_nodes(), 0);
}

TEST_F(GridTest, PreemptNodesZombieModeOverridesSiteDefault) {
  Grid grid = MakeGrid();  // zombie_probability defaults to 0
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(4);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 4);
  EXPECT_EQ(grid.PreemptNodes(0, 2, ZombieMode::kAlways), 2);
  EXPECT_EQ(grid.zombie_nodes(), 2);  // forced despite probability 0
  EXPECT_EQ(grid.PreemptNodes(0, 2, ZombieMode::kNever), 2);
  EXPECT_EQ(grid.zombie_nodes(), 2);  // unchanged
}

TEST_F(GridTest, FreezeAcquisitionStallsReplacementUntilExpiry) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(5);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 5);
  grid.FreezeAcquisition(0, 10 * kMinute);
  const SimTime frozen_until = sim_.now() + 10 * kMinute;
  EXPECT_EQ(grid.acquisition_frozen_until(0), frozen_until);
  grid.PreemptSiteFraction(0, 1.0);
  sim_.RunUntil(frozen_until - kMinute);
  EXPECT_EQ(grid.running_nodes(), 0);  // nothing starts while frozen
  sim_.RunUntil(frozen_until + kHour);
  EXPECT_EQ(grid.running_nodes(), 5);
  // A shorter freeze never shortens a longer one already in force.
  grid.FreezeAcquisition(0, kHour);
  const SimTime extended = grid.acquisition_frozen_until(0);
  grid.FreezeAcquisition(0, kMinute);
  EXPECT_EQ(grid.acquisition_frozen_until(0), extended);
}

TEST_F(GridTest, AcquisitionDelayFactorStretchesQueueWait) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  EXPECT_DOUBLE_EQ(grid.acquisition_delay_factor(0), 1.0);
  grid.SetTargetNodes(10);
  sim_.RunUntil(kHour);
  ASSERT_EQ(grid.running_nodes(), 10);
  // Same eviction, 20x slower batch queue: strictly later recovery than
  // an unthrottled site would manage (mean wait 30 s -> 600 s).
  grid.SetAcquisitionDelayFactor(0, 20.0);
  grid.PreemptSiteFraction(0, 1.0);
  sim_.RunUntil(sim_.now() + 2 * kMinute);
  EXPECT_LT(grid.running_nodes(), 10);  // still climbing back
  sim_.RunUntil(sim_.now() + 4 * kHour);
  EXPECT_EQ(grid.running_nodes(), 10);
}

TEST_F(GridTest, StartupDownloadsPayloadFromRepo) {
  Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.SetTargetNodes(3);
  sim_.RunUntil(kHour);
  // 3 nodes each pulled the 75 MiB worker package.
  EXPECT_EQ(net_.delivered_bytes(), 3 * 75 * kMiB);
}

}  // namespace
}  // namespace hogsim::grid
