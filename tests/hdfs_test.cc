// Unit tests for the HDFS model: topology scripts, placement policies,
// namenode block management, heartbeat-driven death, re-replication, the
// client read/write paths, and the balancer.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/hdfs/balancer.h"
#include "tests/test_cluster.h"

namespace hogsim::hdfs {
namespace {

TEST(Topology, Scripts) {
  EXPECT_EQ(FlatTopology()("anything.example.com"), "/default-rack");
  EXPECT_EQ(SiteAwarenessScript()("node1.red.unl.edu"), "/unl.edu");
  EXPECT_EQ(SiteAwarenessScript()("g3.fnal.gov"), "/fnal.gov");
}

HdfsConfig HogConfig() {
  HdfsConfig config;
  config.default_replication = 10;
  config.heartbeat_recheck = 30 * kSecond;
  config.disk_check_interval = 3 * kMinute;
  return config;
}

HdfsConfig StockConfig() {
  return HdfsConfig{};  // replication 3, 10.5 min recheck, no disk probe
}

TEST(Hdfs, ImportPlacesAllReplicasOnDistinctNodes) {
  TestCluster h = HdfsCluster(5, 6, HogConfig());
  const FileId file = h.nn().ImportFile("f", 5 * 64 * kMiB);
  const auto blocks = h.nn().GetFileBlocks(file);
  ASSERT_EQ(blocks.size(), 5u);
  for (const auto& loc : blocks) {
    EXPECT_EQ(loc.datanodes.size(), 10u);
    std::set<DatanodeId> unique(loc.datanodes.begin(), loc.datanodes.end());
    EXPECT_EQ(unique.size(), 10u) << "replicas must live on distinct nodes";
  }
}

TEST(Hdfs, SiteAwarePlacementCoversAllSites) {
  TestCluster h = HdfsCluster(5, 6, HogConfig());
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const BlockId block = h.nn().GetFileBlocks(file)[0].block;
  // 10 replicas across 5 sites: every site must hold at least one (HOG's
  // multi-institution failure domains).
  EXPECT_EQ(h.SitesOf(block).size(), 5u);
}

TEST(Hdfs, DefaultPlacementUsesTwoRacks) {
  HdfsConfig config = StockConfig();
  TestCluster h = HdfsCluster(4, 5, config, /*site_aware=*/false);
  // Flat topology: all nodes report /default-rack, so the rack rule
  // degenerates gracefully — 3 replicas, 3 distinct nodes.
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  EXPECT_EQ(loc.datanodes.size(), 3u);
  std::set<DatanodeId> unique(loc.datanodes.begin(), loc.datanodes.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Hdfs, DefaultPlacementSpreadsAcrossTwoSitesWhenRacked) {
  // Default policy with a real topology: replica 2 must leave replica 1's
  // rack; replica 3 joins replica 2.
  TestCluster h({.placement = MakeDefaultPlacement,
                 .seed = 3,
                 .hdfs = StockConfig(),
                 .disk = kGiB,
                 .disk_rate = MiBps(60)},
                [](TestCluster& c) {
                  c.AddSites(3, 4, Gbps(2), GridHost("n", "s"));
                });
  for (int i = 0; i < 20; ++i) {
    const FileId file = h.nn().ImportFile("f" + std::to_string(i), 64 * kMiB);
    const auto loc = h.nn().GetFileBlocks(file)[0];
    std::set<std::string> racks(loc.racks.begin(), loc.racks.end());
    EXPECT_EQ(racks.size(), 2u) << "replicas 2+3 share a rack != replica 1's";
  }
}

TEST(Hdfs, ImportReservesDiskSpace) {
  TestCluster h = HdfsCluster(2, 2, StockConfig());
  const Bytes before = [&] {
    Bytes used = 0;
    for (std::size_t i = 0; i < h.worker_count(); ++i) {
      used += h.datanode(i).disk().used();
    }
    return used;
  }();
  EXPECT_EQ(before, 0);
  h.nn().ImportFile("f", 2 * 64 * kMiB);
  Bytes used = 0;
  for (std::size_t i = 0; i < h.worker_count(); ++i) {
    used += h.datanode(i).disk().used();
  }
  EXPECT_EQ(used, 2 * 3 * 64 * kMiB);  // 2 blocks x replication 3
}

TEST(Hdfs, ImportThrowsWhenNoSpace) {
  TestCluster h = HdfsCluster(1, 2, StockConfig(), true, /*disk=*/32 * kMiB);
  EXPECT_THROW(h.nn().ImportFile("f", 64 * kMiB), std::runtime_error);
}

TEST(Hdfs, HeartbeatTimeoutDeclaresDead) {
  TestCluster h = HdfsCluster(2, 3, HogConfig());
  h.sim().RunUntil(10 * kSecond);
  EXPECT_EQ(h.nn().live_datanodes(), 6);
  h.datanode(0).Shutdown();
  // HOG recheck: 30 s. Well within a minute the node must be dead.
  h.sim().RunUntil(h.sim().now() + 90 * kSecond);
  EXPECT_EQ(h.nn().live_datanodes(), 5);
  EXPECT_EQ(h.nn().datanodes_declared_dead(), 1u);
}

TEST(Hdfs, StockTimeoutIsSlow) {
  TestCluster h = HdfsCluster(2, 3, StockConfig());
  h.sim().RunUntil(10 * kSecond);
  h.datanode(0).Shutdown();
  h.sim().RunUntil(h.sim().now() + 5 * kMinute);
  EXPECT_EQ(h.nn().live_datanodes(), 6) << "traditional Hadoop still waits";
  h.sim().RunUntil(h.sim().now() + 15 * kMinute);
  EXPECT_EQ(h.nn().live_datanodes(), 5);
}

TEST(Hdfs, ReReplicationRestoresFactor) {
  HdfsConfig config = HogConfig();
  config.default_replication = 4;
  TestCluster h = HdfsCluster(3, 4, config);
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const BlockId block = h.nn().GetFileBlocks(file)[0].block;
  ASSERT_EQ(h.nn().BlockHolders(block).size(), 4u);
  // Kill one replica holder.
  const DatanodeId victim = h.nn().BlockHolders(block)[0];
  h.datanode(victim).Shutdown();
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  EXPECT_EQ(h.nn().BlockHolders(block).size(), 4u)
      << "replication monitor must restore the factor";
  EXPECT_GE(h.nn().replications_completed(), 1u);
  EXPECT_EQ(h.nn().under_replicated(), 0u);
}

TEST(Hdfs, SurvivesWholeSiteLossWithSiteAwarePlacement) {
  HdfsConfig config = HogConfig();
  config.default_replication = 5;
  TestCluster h = HdfsCluster(5, 4, config);
  const FileId file = h.nn().ImportFile("f", 10 * 64 * kMiB);
  // Site-aware placement covers all 5 sites; kill every node in site 0
  // (daemons 0..3 — hostnames w*.site0.edu).
  for (std::size_t i = 0; i < 4; ++i) h.datanode(i).Shutdown();
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  EXPECT_EQ(h.nn().missing_blocks(), 0u);
  for (const auto& loc : h.nn().GetFileBlocks(file)) {
    EXPECT_GE(loc.datanodes.size(), 5u);
  }
}

TEST(Hdfs, MissingBlockCallbackFiresWhenAllReplicasDie) {
  HdfsConfig config = StockConfig();
  config.default_replication = 2;
  config.heartbeat_recheck = 30 * kSecond;
  TestCluster h = HdfsCluster(1, 3, config);
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const BlockId block = h.nn().GetFileBlocks(file)[0].block;
  int missing = 0;
  h.nn().set_on_block_missing([&](BlockId b) {
    EXPECT_EQ(b, block);
    ++missing;
  });
  for (DatanodeId dn : h.nn().BlockHolders(block)) h.datanode(dn).Shutdown();
  h.sim().RunUntil(h.sim().now() + 2 * kMinute);
  EXPECT_EQ(missing, 1);
  EXPECT_EQ(h.nn().missing_blocks(), 1u);
}

TEST(Hdfs, ZombieDatanodeKeepsHeartbeatingWithoutFix) {
  HdfsConfig config = HogConfig();
  config.disk_check_interval = 0;  // stock behaviour: no probe
  TestCluster h = HdfsCluster(2, 3, config);
  h.sim().RunUntil(10 * kSecond);
  h.datanode(0).EnterZombieMode();
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  EXPECT_TRUE(h.datanode(0).zombie());
  EXPECT_EQ(h.nn().live_datanodes(), 6)
      << "the namenode cannot tell a zombie from a healthy node";
}

TEST(Hdfs, DiskProbeShutsDownZombie) {
  TestCluster h = HdfsCluster(2, 3, HogConfig());  // probe every 3 minutes
  h.sim().RunUntil(10 * kSecond);
  bool exited = false;
  h.datanode(0).set_on_exit([&] { exited = true; });
  h.datanode(0).EnterZombieMode();
  h.sim().RunUntil(h.sim().now() + 4 * kMinute);
  EXPECT_TRUE(exited) << "probe must self-shutdown within one interval";
  EXPECT_FALSE(h.datanode(0).process_alive());
  // ...and the namenode then learns via the 30 s heartbeat timeout.
  h.sim().RunUntil(h.sim().now() + kMinute);
  EXPECT_EQ(h.nn().live_datanodes(), 5);
}

TEST(Hdfs, ClientReadsLocalReplicaFromDisk) {
  TestCluster h = HdfsCluster(2, 3, HogConfig());
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  bool ok = false;
  h.client().ReadBlock(loc.net_nodes[0], loc.block,
                       [&](bool r, bool) { ok = r; });
  h.sim().RunAll(kHour);
  EXPECT_TRUE(ok);
  EXPECT_EQ(h.client().local_read_bytes(), 64 * kMiB);
  EXPECT_EQ(h.client().remote_read_bytes(), 0);
}

TEST(Hdfs, ClientFallsBackAcrossDeadReplicas) {
  HdfsConfig config = StockConfig();
  config.default_replication = 3;
  TestCluster h = HdfsCluster(3, 2, config);
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  // Kill two of the three replica holders outright (before the namenode
  // notices): the client must fail over and still succeed.
  h.datanode(loc.datanodes[0]).Shutdown();
  h.datanode(loc.datanodes[1]).Shutdown();
  // Read from the master's position (not a datanode).
  bool ok = false;
  h.client().ReadBlock(h.nn().master_node(), loc.block,
                       [&](bool r, bool) { ok = r; });
  h.sim().RunAll(kHour);
  EXPECT_TRUE(ok);
  EXPECT_EQ(h.client().remote_read_bytes(), 64 * kMiB);
}

TEST(Hdfs, ReadFailsWhenAllReplicasGone) {
  HdfsConfig config = StockConfig();
  config.default_replication = 2;
  TestCluster h = HdfsCluster(1, 2, config);
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  for (DatanodeId dn : loc.datanodes) h.datanode(dn).Shutdown();
  bool done = false, ok = true;
  h.client().ReadBlock(h.nn().master_node(), loc.block, [&](bool r, bool) {
    done = true;
    ok = r;
  });
  h.sim().RunAll(kHour);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
}

TEST(Hdfs, ZombieReplicaCostsRetryTimeout) {
  HdfsConfig config = StockConfig();
  config.default_replication = 2;
  config.read_retry_timeout = 10 * kSecond;
  TestCluster h = HdfsCluster(1, 3, config);
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  h.datanode(loc.datanodes[0]).EnterZombieMode();
  SimTime done_at = -1;
  const SimTime start = h.sim().now();
  // Read from the zombie's own node: the local (zombie) replica is tried
  // first and wastes the retry timeout.
  h.client().ReadBlock(loc.net_nodes[0], loc.block,
                       [&](bool ok, bool) {
                         EXPECT_TRUE(ok);
                         done_at = h.sim().now();
                       });
  h.sim().RunAll(kHour);
  EXPECT_GE(done_at - start, 10 * kSecond);
}

TEST(Hdfs, WritePipelineCommitsAllReplicas) {
  TestCluster h = HdfsCluster(3, 3, HogConfig());
  const FileId file = h.nn().CreateFile("out", /*replication=*/6);
  bool ok = false;
  // Write from daemon 0's node.
  h.client().WriteBlock(h.nn().datanode(0).net_node, file, 64 * kMiB,
                        [&](bool r) { ok = r; });
  h.sim().RunAll(kHour);
  EXPECT_TRUE(ok);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  EXPECT_EQ(loc.datanodes.size(), 6u);
  // Writer-local first replica (map-output locality).
  EXPECT_EQ(loc.datanodes[0], 0u);
  EXPECT_EQ(h.nn().FileSize(file), 64 * kMiB);
}

TEST(Hdfs, WriteSurvivesMidPipelineDeath) {
  HdfsConfig config = HogConfig();
  config.default_replication = 5;
  TestCluster h = HdfsCluster(5, 2, config);
  const FileId file = h.nn().CreateFile("out");
  bool ok = false;
  bool killed = false;
  h.client().WriteBlock(h.nn().datanode(0).net_node, file, 256 * kMiB,
                        [&](bool r) { ok = r; });
  // Kill a datanode shortly after the pipeline starts.
  h.sim().ScheduleAfter(kSecond, [&] {
    killed = true;
    h.datanode(3).Shutdown();
    h.net().FailFlowsAtNode(h.nn().datanode(3).net_node);
  });
  h.sim().RunAll(kHour);
  EXPECT_TRUE(killed);
  EXPECT_TRUE(ok) << "pipeline must commit with the surviving prefix";
  EXPECT_GE(h.nn().GetFileBlocks(file)[0].datanodes.size(), 1u);
}

TEST(Hdfs, WriteFailsCleanlyWithNoTargets) {
  TestCluster h = HdfsCluster(1, 2, StockConfig(), true, /*disk=*/16 * kMiB);
  const FileId file = h.nn().CreateFile("out");
  bool done = false, ok = true;
  h.client().WriteBlock(h.nn().master_node(), file, 64 * kMiB, [&](bool r) {
    done = true;
    ok = r;
  });
  h.sim().RunAll(kHour);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(h.nn().FileSize(file), 0);
}

TEST(Hdfs, WriteToUnknownFileFails) {
  TestCluster h = HdfsCluster(1, 2, HogConfig());
  const FileId file = h.nn().CreateFile("out");
  bool done = false, ok = true;
  h.client().WriteBlock(h.nn().datanode(0).net_node, file + 1, 64 * kMiB,
                        [&](bool r) {
                          done = true;
                          ok = r;
                        });
  EXPECT_FALSE(done) << "the failure arrives from an event, not inline";
  h.sim().RunAll(kHour);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(h.nn().FileSize(file), 0);
}

TEST(Hdfs, CancelledReadNeverCallsBack) {
  TestCluster h = HdfsCluster(2, 3, HogConfig());
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  bool fired = false;
  DfsOp op = h.client().ReadBlock(h.nn().master_node(), loc.block,
                                  [&](bool, bool) { fired = true; });
  op.Cancel();
  h.sim().RunAll(kHour);
  EXPECT_FALSE(fired);
}

TEST(Hdfs, CancelledWriteReleasesReservations) {
  TestCluster h = HdfsCluster(2, 3, HogConfig());
  const FileId file = h.nn().CreateFile("out", 4);
  DfsOp op = h.client().WriteBlock(h.nn().datanode(0).net_node, file,
                                   64 * kMiB, [](bool) { FAIL(); });
  h.sim().RunUntil(kSecond);  // mid-pipeline
  op.Cancel();
  h.sim().RunAll(kHour);
  Bytes used = 0;
  for (std::size_t i = 0; i < h.worker_count(); ++i) {
    used += h.datanode(i).disk().used();
  }
  EXPECT_EQ(used, 0) << "abandoned write must return all reserved space";
  EXPECT_EQ(h.nn().FileSize(file), 0);
}

// A write pipeline's hop `launch` and `recover` closures reference each
// other weakly: a strong capture is a shared_ptr cycle that keeps the pair,
// and everything the completion callback captured, alive forever. The
// weak_ptr observer on the callback's payload proves the chain freed itself
// once the block committed, with a recovery on the way.
TEST(Hdfs, WriteChainReleasesItselfAfterRecovery) {
  HdfsConfig config = HogConfig();
  config.default_replication = 5;
  TestCluster h = HdfsCluster(4, 2, config);
  const FileId file = h.nn().CreateFile("freed");
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> observer = payload;
  bool done = false;
  // Written from datanode 0's node: replica 0 is writer-local, so killing
  // node 0 mid-write hits a pipeline member and `recover` runs.
  h.client().WriteBlock(h.nn().datanode(0).net_node, file, 256 * kMiB,
                        [&done, payload = std::move(payload)](bool ok) {
                          EXPECT_TRUE(ok);
                          done = true;
                        });
  h.sim().ScheduleAfter(kSecond, [&] {
    h.datanode(0).Shutdown();
    h.net().FailFlowsAtNode(h.nn().datanode(0).net_node);
  });
  h.sim().RunAll(kHour);
  ASSERT_TRUE(done);
  EXPECT_GE(
      h.sim().obs().metrics().GetCounter("hdfs.pipeline.recovered").value(),
      1u);
  EXPECT_TRUE(observer.expired())
      << "the write chain must free itself (and the done callback) once "
         "the block commits";
}

// Same property on the cancel path. A self-cycled chain is unowned heap
// garbage that not even simulation teardown can reclaim, so the observer
// is checked after the harness is gone.
TEST(Hdfs, CancelledWriteReleasesItsChain) {
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> observer = payload;
  {
    TestCluster h = HdfsCluster(2, 3, HogConfig());
    const FileId file = h.nn().CreateFile("cancelled", 4);
    DfsOp op = h.client().WriteBlock(
        h.nn().datanode(0).net_node, file, 64 * kMiB,
        [payload = std::move(payload)](bool) { FAIL(); });
    h.sim().RunUntil(kSecond);  // mid-pipeline
    op.Cancel();
    h.sim().RunAll(kHour);
  }
  EXPECT_TRUE(observer.expired())
      << "a cancelled write must release its hop chain";
}

TEST(Balancer, MovesBlocksTowardEmptyNodes) {
  HdfsConfig config = StockConfig();
  config.default_replication = 2;
  TestCluster h = HdfsCluster(2, 2, config);  // 4 nodes
  h.nn().ImportFile("f", 20 * 64 * kMiB);
  // Add two fresh, empty datanodes (elastic growth).
  sim::Simulation& sim = h.sim();
  const net::SiteId site = h.AddSite(Gbps(2));
  storage::Disk& fresh_disk1 = h.disk(h.AddWorker(site, "f1.new.edu"));
  storage::Disk& fresh_disk2 = h.disk(h.AddWorker(site, "f2.new.edu"));

  BalancerConfig bal_config;
  bal_config.threshold = 0.02;  // the test dataset is small
  Balancer balancer(h.nn(), bal_config);
  balancer.Start();
  sim.RunUntil(sim.now() + 30 * kMinute);
  balancer.Stop();
  EXPECT_GT(balancer.moves_completed(), 0u);
  EXPECT_GT(fresh_disk1.used() + fresh_disk2.used(), 0);
  // Conservation: every block still has exactly 2 replicas.
  EXPECT_EQ(h.nn().under_replicated(), 0u);
  EXPECT_EQ(h.nn().missing_blocks(), 0u);
}

// Property sweep: random failure patterns never lose data while at least
// one site survives under HOG placement (replication >= site count).
class HdfsAvailabilityTest : public ::testing::TestWithParam<int> {};

TEST_P(HdfsAvailabilityTest, NoDataLossWhileOneSiteSurvives) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  HdfsConfig config = HogConfig();
  config.default_replication = 5;
  TestCluster h = HdfsCluster(5, 3, config);
  h.nn().ImportFile("f", 8 * 64 * kMiB);
  // Kill every node in 4 random sites (12 of 15 nodes max).
  std::set<int> doomed_sites;
  while (doomed_sites.size() < 4) {
    doomed_sites.insert(static_cast<int>(rng.UniformInt(0, 4)));
  }
  for (int s : doomed_sites) {
    for (int n = 0; n < 3; ++n) {
      h.datanode(static_cast<std::size_t>(s * 3 + n)).Shutdown();
    }
  }
  h.sim().RunUntil(h.sim().now() + 5 * kMinute);
  EXPECT_EQ(h.nn().missing_blocks(), 0u)
      << "site-aware placement guarantees a copy in the surviving site";
}

INSTANTIATE_TEST_SUITE_P(Seeds, HdfsAvailabilityTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace hogsim::hdfs
