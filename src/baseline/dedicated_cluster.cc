#include "src/baseline/dedicated_cluster.h"

#include "src/hdfs/placement.h"
#include "src/hdfs/topology.h"

namespace hogsim::baseline {

namespace {

// Table III: 30 slaves on 1 Gbps Ethernet. The first 20 are dual-dual-core
// (4 map slots), the other 10 dual-single-core (2 map slots); each runs
// one reduce slot.
constexpr int kSlaves = 30;
constexpr int kDualDualCoreSlaves = 20;
constexpr Rate kNic = Gbps(1.0);
constexpr Bytes kSlaveDisk = 400 * kGiB;
constexpr Rate kSlaveDiskRate = MiBps(80.0);

}  // namespace

DedicatedCluster::DedicatedCluster(std::uint64_t seed) : net_(sim_) {
  Rng rng(seed);

  // One rack <=> one network site; the LAN's 1 Gbps NICs are the only
  // bandwidth constraints (the "uplink" is never crossed). Stock HDFS and
  // MapReduce settings throughout.
  const net::SiteId site = net_.AddSite(Gbps(100.0));
  master_ = net_.AddNode(site, kNic);

  namenode_ = std::make_unique<hdfs::Namenode>(
      sim_, net_, master_, hdfs::FlatTopology(),
      hdfs::MakeDefaultPlacement(), rng.Fork("namenode"), hdfs::HdfsConfig{});
  namenode_->Start();
  jobtracker_ = std::make_unique<mr::JobTracker>(
      sim_, net_, *namenode_, master_, hdfs::FlatTopology(), mr::MrConfig{});
  jobtracker_->Start();
  dfs_ = std::make_unique<hdfs::DfsClient>(*namenode_);

  for (int index = 0; index < kSlaves; ++index) {
    const int map_slots = index < kDualDualCoreSlaves ? 4 : 2;
    const int reduce_slots = 1;
    Slave slave;
    slave.net_node = net_.AddNode(site, kNic);
    slave.disk =
        std::make_unique<storage::Disk>(sim_, kSlaveDisk, kSlaveDiskRate);
    const std::string hostname =
        "slave" + std::to_string(index) + ".cluster.local";
    slave.datanode = std::make_unique<hdfs::Datanode>(
        sim_, net_, *namenode_, hostname, slave.net_node, *slave.disk);
    slave.datanode->Start();
    slave.tasktracker = std::make_unique<mr::TaskTracker>(
        sim_, net_, *jobtracker_, *dfs_, hostname, slave.net_node,
        *slave.disk, map_slots, reduce_slots);
    slave.tasktracker->Start();
    total_map_slots_ += map_slots;
    total_reduce_slots_ += reduce_slots;
    slaves_.push_back(std::move(slave));
  }
}

DedicatedCluster::~DedicatedCluster() = default;

void DedicatedCluster::KillSlave(int index) {
  Slave& slave = slaves_.at(static_cast<std::size_t>(index));
  slave.datanode->Shutdown();
  slave.tasktracker->Shutdown();
  net_.FailFlowsAtNode(slave.net_node);
  slave.disk->CancelAll();
}

}  // namespace hogsim::baseline
