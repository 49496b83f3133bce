// The paper's comparison baseline: the dedicated Hadoop cluster of
// Table III — one rack, 1 Gbps Ethernet, 30 slave nodes (20 with 4 map +
// 1 reduce slots, 10 with 2 map + 1 reduce slots; 100 cores total), stock
// Hadoop 0.20 settings (replication 3, rack awareness within a single
// rack, ~10 minute failure timeouts).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/hdfs/datanode.h"
#include "src/hdfs/dfs_client.h"
#include "src/hdfs/namenode.h"
#include "src/mapreduce/jobtracker.h"
#include "src/mapreduce/tasktracker.h"
#include "src/net/flow_network.h"
#include "src/sim/simulation.h"
#include "src/storage/disk.h"
#include "src/util/rng.h"

namespace hogsim::baseline {

/// A fully wired dedicated cluster. All daemons are started at
/// construction; time 0 is "cluster is up".
class DedicatedCluster {
 public:
  explicit DedicatedCluster(std::uint64_t seed);
  ~DedicatedCluster();
  DedicatedCluster(const DedicatedCluster&) = delete;
  DedicatedCluster& operator=(const DedicatedCluster&) = delete;

  sim::Simulation& sim() { return sim_; }
  hdfs::Namenode& namenode() { return *namenode_; }
  mr::JobTracker& jobtracker() { return *jobtracker_; }

  int slave_count() const { return static_cast<int>(slaves_.size()); }
  int total_map_slots() const { return total_map_slots_; }
  int total_reduce_slots() const { return total_reduce_slots_; }

  /// Kills slave `index` (process death + disk loss), for failure tests.
  void KillSlave(int index);

 private:
  struct Slave {
    std::unique_ptr<storage::Disk> disk;
    std::unique_ptr<hdfs::Datanode> datanode;
    std::unique_ptr<mr::TaskTracker> tasktracker;
    net::NodeId net_node = net::kInvalidNode;
  };

  sim::Simulation sim_;
  net::FlowNetwork net_;
  net::NodeId master_ = net::kInvalidNode;
  std::unique_ptr<hdfs::Namenode> namenode_;
  std::unique_ptr<mr::JobTracker> jobtracker_;
  std::unique_ptr<hdfs::DfsClient> dfs_;
  std::vector<Slave> slaves_;
  int total_map_slots_ = 0;
  int total_reduce_slots_ = 0;
};

}  // namespace hogsim::baseline
