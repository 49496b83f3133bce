// Tests for §III.B master-unavailability semantics: while the namenode is
// down the file system stalls; after a restart, surviving datanodes are
// re-admitted with their block inventories and no data is lost.
#include <gtest/gtest.h>

#include <string_view>

#include "src/check/auditor.h"
#include "src/hdfs/datanode.h"
#include "src/hdfs/dfs_client.h"
#include "src/hdfs/namenode.h"
#include "src/hdfs/placement.h"
#include "src/hdfs/topology.h"
#include "src/workload/runner.h"

namespace hogsim::hdfs {
namespace {

class FailoverHarness {
 public:
  explicit FailoverHarness(int nodes, HdfsConfig config = {}) : net_(sim_) {
    const net::SiteId central = net_.AddSite(Gbps(10));
    master_ = net_.AddNode(central, Gbps(1));
    config.heartbeat_recheck = 30 * kSecond;
    nn_ = std::make_unique<Namenode>(sim_, net_, master_,
                                     SiteAwarenessScript(),
                                     MakeSiteAwarePlacement(), Rng(5), config);
    nn_->Start();
    const net::SiteId site = net_.AddSite(Gbps(2));
    for (int i = 0; i < nodes; ++i) {
      disks_.push_back(
          std::make_unique<storage::Disk>(sim_, 20 * kGiB, MiBps(60)));
      daemons_.push_back(std::make_unique<Datanode>(
          sim_, net_, *nn_, "w" + std::to_string(i) + ".site.edu",
          net_.AddNode(site, Gbps(1)), *disks_.back()));
      daemons_.back()->Start();
    }
    client_ = std::make_unique<DfsClient>(*nn_);
  }

  sim::Simulation& sim() { return sim_; }
  Namenode& nn() { return *nn_; }
  DfsClient& client() { return *client_; }
  Datanode& daemon(std::size_t i) { return *daemons_[i]; }
  net::NodeId master() const { return master_; }
  net::FlowNetwork& net() { return net_; }

  void AddLateDatanode() {
    const net::SiteId site = net_.AddSite(Gbps(2));
    disks_.push_back(
        std::make_unique<storage::Disk>(sim_, 20 * kGiB, MiBps(60)));
    daemons_.push_back(std::make_unique<Datanode>(
        sim_, net_, *nn_, "late.other.edu", net_.AddNode(site, Gbps(1)),
        *disks_.back()));
    daemons_.back()->Start();
  }

 private:
  sim::Simulation sim_;
  net::FlowNetwork net_;
  net::NodeId master_ = net::kInvalidNode;
  std::unique_ptr<Namenode> nn_;
  std::unique_ptr<DfsClient> client_;
  std::vector<std::unique_ptr<storage::Disk>> disks_;
  std::vector<std::unique_ptr<Datanode>> daemons_;
};

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
  FailoverHarness h(6);  // stock replication 3
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
  FailoverHarness h(4);
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
  FailoverHarness h(4);
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
  FailoverHarness h(8, config);
  const FileId file = h.nn().ImportFile("f", 4 * 64 * kMiB);
  h.sim().RunUntil(kMinute);
  h.nn().Crash();
  // Two nodes die while the master is blind.
  h.daemon(0).Shutdown();
  h.daemon(1).Shutdown();
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
  FailoverHarness h(3);
  h.sim().RunUntil(kMinute);
  h.nn().Crash();
  // A brand-new glidein starts while the master is down: its registration
  // retries until the namenode answers.
  h.AddLateDatanode();
  h.sim().RunUntil(h.sim().now() + 3 * kMinute);
  EXPECT_EQ(h.nn().live_datanodes(), 3);  // crash froze the namenode view
  h.nn().Restart();
  h.sim().RunUntil(h.sim().now() + kMinute);
  EXPECT_EQ(h.nn().live_datanodes(), 4);
}

TEST(NamenodeFailover, RestartReadmissionKeepsTheLiveGaugeInStep) {
  FailoverHarness h(3);
  h.sim().obs().tracer().set_enabled(true);
  // A gray datanode: heavy heartbeat jitter opens a silence past the 30 s
  // recheck and the namenode declares a process that is still running.
  h.daemon(0).set_heartbeat_jitter(30 * kMinute);
  ASSERT_TRUE(workload::RunSimUntil(
      h.sim(), [&] { return h.nn().datanodes_declared_dead() == 1; }, kHour));
  ASSERT_EQ(h.nn().live_datanodes(), 2);
  h.daemon(0).set_heartbeat_jitter(0);
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
