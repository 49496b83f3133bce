// Tests for §III.B master-unavailability semantics: while the namenode is
// down the file system stalls; after a restart, surviving datanodes are
// re-admitted with their block inventories and no data is lost.
#include <gtest/gtest.h>

#include <string_view>

#include "src/check/auditor.h"
#include "src/workload/runner.h"
#include "tests/test_cluster.h"

namespace hogsim::hdfs {
namespace {

// A namenode and `nodes` datanodes on one site, with HOG's 30 s recheck.
TestCluster FailoverCluster(int nodes, HdfsConfig config = {}) {
  config.heartbeat_recheck = 30 * kSecond;
  return TestCluster(
      {.seed = 5, .hdfs = config, .disk_rate = MiBps(60)},
      [&](TestCluster& c) {
        c.AddSites(1, nodes, Gbps(2), [](int, int n) {
          return "w" + std::to_string(n) + ".site.edu";
        });
      });
}

// The last sample of a trace counter track (-1 if it has none).
double LastCounterSample(const obs::Tracer& tracer, std::string_view track) {
  double last = -1;
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.kind == obs::TraceEvent::Kind::kCounter && e.name == track) {
      last = e.value;
    }
  }
  return last;
}

TEST(NamenodeFailover, NoDataLostAcrossRestart) {
  TestCluster h = FailoverCluster(6);  // stock replication 3
  const FileId file = h.nn().ImportFile("f", 8 * 64 * kMiB);
  h.sim().RunUntil(kMinute);
  h.nn().Crash();
  EXPECT_FALSE(h.nn().available());
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  h.nn().Restart();
  h.sim().RunUntil(h.sim().now() + kMinute);
  // "though no data will be lost": all replicas re-admitted.
  EXPECT_EQ(h.nn().missing_blocks(), 0u);
  EXPECT_EQ(h.nn().under_replicated(), 0u);
  EXPECT_EQ(h.nn().live_datanodes(), 6);
  for (const auto& loc : h.nn().GetFileBlocks(file)) {
    EXPECT_EQ(loc.datanodes.size(), 3u);
  }
}

TEST(NamenodeFailover, ReadsStallDuringOutageThenComplete) {
  TestCluster h = FailoverCluster(4);
  const FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const BlockId block = h.nn().GetFileBlocks(file)[0].block;
  h.sim().RunUntil(kMinute);
  h.nn().Crash();
  SimTime done_at = -1;
  h.client().ReadBlock(h.master(), block, [&](bool ok, bool) {
    EXPECT_TRUE(ok);
    done_at = h.sim().now();
  });
  // Read cannot finish while the master is down...
  h.sim().RunUntil(h.sim().now() + 5 * kMinute);
  EXPECT_EQ(done_at, -1);
  // ...but resumes transparently after the restart.
  const SimTime restart_at = h.sim().now();
  h.nn().Restart();
  h.sim().RunAll(h.sim().now() + kHour);
  EXPECT_GE(done_at, restart_at);
}

TEST(NamenodeFailover, WritesStallWithoutBurningAttempts) {
  TestCluster h = FailoverCluster(4);
  const FileId file = h.nn().CreateFile("out", 3);
  h.sim().RunUntil(kMinute);
  h.nn().Crash();
  bool ok_result = false;
  SimTime done_at = -1;
  h.client().WriteBlock(h.master(), file, 64 * kMiB, [&](bool ok) {
    ok_result = ok;
    done_at = h.sim().now();
  });
  h.sim().RunUntil(h.sim().now() + 8 * kMinute);
  EXPECT_EQ(done_at, -1) << "write must wait, not fail";
  h.nn().Restart();
  h.sim().RunAll(h.sim().now() + kHour);
  EXPECT_TRUE(ok_result);
  EXPECT_EQ(h.nn().FileSize(file), 64 * kMiB);
}

TEST(NamenodeFailover, NodesThatDiedDuringOutageArePruned) {
  HdfsConfig config;
  config.default_replication = 4;
  TestCluster h = FailoverCluster(8, config);
  const FileId file = h.nn().ImportFile("f", 4 * 64 * kMiB);
  h.sim().RunUntil(kMinute);
  h.nn().Crash();
  // Two nodes die while the master is blind.
  h.datanode(0).Shutdown();
  h.datanode(1).Shutdown();
  h.sim().RunUntil(h.sim().now() + 5 * kMinute);
  h.nn().Restart();
  EXPECT_EQ(h.nn().live_datanodes(), 6);
  // Their replicas re-replicate onto the survivors. (The predicate checks
  // replica counts directly: the needed-queue can be transiently empty
  // while transfers are merely pending.)
  auto fully_replicated = [&] {
    for (const auto& loc : h.nn().GetFileBlocks(file)) {
      if (loc.datanodes.size() < 4u) return false;
    }
    return true;
  };
  ASSERT_TRUE(workload::RunSimUntil(h.sim(), fully_replicated, 2 * kHour));
  EXPECT_EQ(h.nn().missing_blocks(), 0u);
}

TEST(NamenodeFailover, LateDatanodeRegistersAfterRestart) {
  TestCluster h = FailoverCluster(3);
  h.sim().RunUntil(kMinute);
  h.nn().Crash();
  // A brand-new glidein starts while the master is down: its registration
  // retries until the namenode answers.
  h.AddWorker(h.AddSite(Gbps(2)), "late.other.edu");
  h.sim().RunUntil(h.sim().now() + 3 * kMinute);
  EXPECT_EQ(h.nn().live_datanodes(), 3);  // crash froze the namenode view
  h.nn().Restart();
  h.sim().RunUntil(h.sim().now() + kMinute);
  EXPECT_EQ(h.nn().live_datanodes(), 4);
}

TEST(NamenodeFailover, RestartReadmissionKeepsTheLiveGaugeInStep) {
  TestCluster h = FailoverCluster(3);
  h.sim().obs().tracer().set_enabled(true);
  // A gray datanode: heavy heartbeat jitter opens a silence past the 30 s
  // recheck and the namenode declares a process that is still running.
  h.datanode(0).set_heartbeat_jitter(30 * kMinute);
  ASSERT_TRUE(workload::RunSimUntil(
      h.sim(), [&] { return h.nn().datanodes_declared_dead() == 1; }, kHour));
  ASSERT_EQ(h.nn().live_datanodes(), 2);
  h.datanode(0).set_heartbeat_jitter(0);
  // The restart sweep re-admits it, and nothing afterwards re-publishes
  // the count: no register, no declare, only steady heartbeats.
  h.nn().Crash();
  h.sim().RunUntil(h.sim().now() + kSecond);
  h.nn().Restart();
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  EXPECT_EQ(h.nn().datanodes_declared_dead(), 1u);
  EXPECT_EQ(h.nn().live_datanodes(), 3);
  EXPECT_EQ(h.sim().obs().metrics().GetGauge("hdfs.datanodes.live").value(),
            3.0);
  EXPECT_EQ(LastCounterSample(h.sim().obs().tracer(), "datanodes.live"), 3.0);
  check::Auditor auditor(h.sim(), &h.nn(), nullptr, nullptr);
  EXPECT_EQ(auditor.AuditNow(), 0u);
}

}  // namespace
}  // namespace hogsim::hdfs
