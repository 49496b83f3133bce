// The HDFS master: file namespace, block map, heartbeat-driven failure
// detection, and namenode-directed re-replication.
//
// In HOG the namenode lives on a stable central server (§III.B); worker
// datanodes register over the WAN, and their failure is detected purely by
// heartbeat silence. Lowering `heartbeat_recheck` from the traditional
// ~15 minutes to 30 seconds is one of the paper's three key modifications.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/hdfs/placement.h"
#include "src/hdfs/replication_queue.h"
#include "src/hdfs/topology.h"
#include "src/hdfs/types.h"
#include "src/health/liveness.h"
#include "src/net/flow_network.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/storage/disk.h"
#include "src/util/rng.h"

namespace hogsim::check {
class Auditor;
}  // namespace hogsim::check

namespace hogsim::health {
class Quarantine;
}  // namespace hogsim::health

namespace hogsim::hdfs {

class Datanode;

class Namenode final : public ClusterView {
 public:
  Namenode(sim::Simulation& sim, net::FlowNetwork& net, net::NodeId master,
           TopologyScript topology, std::unique_ptr<BlockPlacementPolicy> policy,
           Rng rng, HdfsConfig config);
  ~Namenode() override;

  /// Arms the heartbeat-recheck and replication monitors.
  void Start();

  // ---- Master availability (§III.B: the namenode is a single point of
  // failure on HOG's central server; while it is down the file system is
  // unavailable, but no data is lost) ------------------------------------

  /// Takes the namenode down: monitors stop, in-flight re-replications
  /// abort, and clients block until Restart().
  void Crash();

  /// Brings the namenode back. Surviving datanodes are re-admitted with
  /// their block inventories (the block-report path); nodes that died
  /// during the outage are pruned and their blocks queued for
  /// re-replication.
  void Restart();

  bool available() const { return available_; }

  // ---- Datanode lifecycle (invoked by Datanode daemons) ----------------

  DatanodeId RegisterDatanode(Datanode& daemon);
  void Heartbeat(DatanodeId id);

  /// Per-datanode view kept by the namenode.
  struct DatanodeEntry {
    Datanode* daemon = nullptr;  // null once the process is gone
    std::string hostname;
    std::string rack;
    net::NodeId net_node = net::kInvalidNode;
    std::unordered_set<BlockId> blocks;
    int repl_in = 0;   // active re-replication transfers sinking here
    int repl_out = 0;  // ... sourcing from here
  };

  const DatanodeEntry& datanode(DatanodeId id) const {
    return datanodes_[id];
  }
  std::size_t datanode_count() const { return datanodes_.size(); }
  /// The namenode's belief, driven by heartbeats (src/health/liveness.h).
  bool DatanodeAlive(DatanodeId id) const { return liveness_.alive(id); }
  int live_datanodes() const { return liveness_.live(); }

  /// Locality lookup: the registered, alive datanode at a network endpoint
  /// (kInvalidDatanode if none).
  DatanodeId DatanodeAt(net::NodeId node) const;

  // ---- File namespace ----------------------------------------------------

  /// Creates an empty file; blocks are appended by writers.
  FileId CreateFile(std::string name, int replication = -1);

  /// Pre-loads a file of `size` bytes: blocks are placed and space is
  /// reserved instantly (the paper uploads input data before timing
  /// starts). Throws std::runtime_error if no replica of some block can be
  /// placed at all.
  FileId ImportFile(std::string name, Bytes size, int replication = -1);

  std::vector<BlockLocation> GetFileBlocks(FileId file) const;
  Bytes FileSize(FileId file) const;
  int FileReplication(FileId file) const;
  const std::string& FileName(FileId file) const;
  bool FileExists(FileId file) const;

  // ---- Block-level operations (used by DfsClient write pipelines) -------

  /// Registers a new block of a file; holders arrive via CommitBlock.
  BlockId AllocateBlock(FileId file, Bytes size);

  /// Chooses pipeline targets for a new block using the placement policy.
  std::vector<DatanodeId> ChooseTargets(int count, DatanodeId writer,
                                        const std::vector<DatanodeId>& exclude,
                                        Bytes size);

  /// Finalizes a block with the datanodes that actually stored it. Space
  /// must already be reserved by the writer. Under-replicated blocks are
  /// queued for namenode-directed replication.
  void CommitBlock(BlockId block, const std::vector<DatanodeId>& holders);

  /// Drops a never-committed block.
  void AbandonBlock(BlockId block);

  /// Adds a replica (completed re-replication or balancer move).
  void AddReplica(BlockId block, DatanodeId dn);

  /// Removes a replica (balancer move source side, or the replication
  /// controller trimming excess); space is released.
  void RemoveReplica(BlockId block, DatanodeId dn);

  // ---- Per-block replication targets (setrep; the adaptive replication
  // controller drives these, see src/hdfs/repl_controller.h) -------------

  /// Retargets one block's replication factor. Raising it queues the new
  /// deficit for namenode-directed replication on the next scan; lowering
  /// it only relaxes the target — excess replicas are removed by the
  /// caller (RemoveReplica), never implicitly.
  void SetBlockReplication(BlockId block, int replication);

  /// The block's current replication target (0 for unknown blocks).
  int BlockReplication(BlockId block) const {
    const BlockInfo* info = FindBlock(block);
    return info != nullptr ? info->replication : 0;
  }

  /// Namenode-directed re-replications in flight for this block.
  int BlockPendingReplications(BlockId block) const {
    const BlockInfo* info = FindBlock(block);
    return info != nullptr ? info->pending_replications : 0;
  }

  /// Live, serving replica holders of a block (namenode view).
  std::vector<DatanodeId> BlockHolders(BlockId block) const;
  Bytes BlockSize(BlockId block) const;
  bool BlockExists(BlockId block) const { return FindBlock(block) != nullptr; }
  /// True once the client's write pipeline committed the block. An
  /// allocated-but-uncommitted block is an in-flight (or abandoned) write,
  /// not acknowledged data.
  bool BlockCommitted(BlockId block) const {
    const BlockInfo* info = FindBlock(block);
    return info != nullptr && info->committed;
  }

  // ---- ClusterView --------------------------------------------------------

  std::vector<DatanodeId> WritableDatanodes(Bytes size) const override;
  const std::string& RackOf(DatanodeId id) const override;
  bool Probated(DatanodeId id) const override;

  /// True when the datanode is believed alive and its daemon can actually
  /// serve reads (a zombie heartbeats but cannot) — the predicate the
  /// replication monitor uses to pick transfer sources.
  bool DatanodeServing(DatanodeId id) const { return Serving(id); }

  // ---- Introspection / metrics -------------------------------------------

  std::size_t under_replicated() const { return needed_.size(); }
  /// The prioritized under-replication queue (per-level introspection).
  const ReplicationQueue& replication_queue() const { return needed_; }
  /// Blocks with zero serving replicas right now.
  std::size_t missing_blocks() const;
  std::uint64_t replications_completed() const {
    return ins_.replication_completed.value();
  }
  Bytes replication_bytes() const { return replication_bytes_; }
  std::uint64_t datanodes_declared_dead() const {
    return liveness_.declared();
  }

  /// One past the highest allocated BlockId — the iteration bound for
  /// block-map scans (ids are dense, starting at 1; abandoned slots are
  /// tombstoned and must be re-checked via BlockExists).
  BlockId block_count() const { return next_block_; }

  /// Physical bytes of committed replicas across believed-alive holders —
  /// the storage-cost numerator of the replication benches.
  Bytes StoredReplicaBytes() const;
  /// Logical bytes of committed blocks (each block counted once);
  /// StoredReplicaBytes / LogicalBytes is the effective replication factor.
  Bytes LogicalBytes() const;

  net::NodeId master_node() const { return master_; }
  const HdfsConfig& config() const { return config_; }
  const BlockPlacementPolicy& policy() const { return *policy_; }
  sim::Simulation& simulation() { return sim_; }
  net::FlowNetwork& network() { return net_; }

  /// Fired whenever a block transitions to zero live replicas.
  void set_on_block_missing(std::function<void(BlockId)> cb) {
    on_block_missing_ = std::move(cb);
  }

  /// Fired when a datanode is declared dead (heartbeat expiry or a master
  /// restart pruning nodes that died during the outage) — the observation
  /// seam the replication controller's per-site hazard EWMAs feed on, same
  /// as the ATLAS scheduler's tracker-loss hook.
  void set_on_datanode_dead(std::function<void(DatanodeId)> cb) {
    on_datanode_dead_ = std::move(cb);
  }

  /// Attaches the cluster health manager (flap history, quarantine).
  /// Optional; null means no flap accounting and no probation, exactly
  /// the pre-health behavior.
  void set_health(health::Quarantine* health) { health_ = health; }

 private:
  // The invariant auditor (src/check) reads — never mutates — the block
  // map, datanode entries, and transfer ledger to cross-check them against
  // datanode and client state.
  friend class ::hogsim::check::Auditor;

  struct BlockInfo {
    FileId file = kInvalidFile;
    Bytes size = 0;
    int replication = 3;
    std::unordered_set<DatanodeId> holders;
    int pending_replications = 0;
    bool committed = false;
    /// Arena slot state: block ids are dense and monotonically assigned,
    /// so the block map is a flat vector indexed by id; abandoning a block
    /// resets its slot to this default (live == false) tombstone.
    bool live = false;
  };

  struct FileInfo {
    std::string name;
    int replication = 3;
    std::vector<BlockId> blocks;
  };

  struct Transfer {
    BlockId block;
    DatanodeId src;
    DatanodeId dst;
    net::FlowId flow = net::kInvalidFlow;
    storage::FairQueue::OpId disk_op = storage::FairQueue::kInvalidOp;
    SimTime started = 0;  // re-replication pipeline span start
  };

  // Observability handles, registered once at construction (obs/metrics.h).
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& m)
        : heartbeat_received(m.GetCounter("hdfs.heartbeat.received")),
          block_placed(m.GetCounter("hdfs.block.placed")),
          replication_completed(
              m.GetCounter("hdfs.replication.completed")),
          replication_failed(m.GetCounter("hdfs.replication.failed")),
          blocks_under_replicated(
              m.GetGauge("hdfs.blocks.under_replicated")),
          blocks_critical(
              m.GetGauge("hdfs.blocks.under_replicated_critical")) {}
    obs::Counter& heartbeat_received;
    obs::Counter& block_placed;
    obs::Counter& replication_completed;
    obs::Counter& replication_failed;
    obs::Gauge& blocks_under_replicated;
    obs::Gauge& blocks_critical;
  };

  /// Declares the datanode dead (heartbeat expiry or a restart pruning a
  /// node that died during the outage) and surrenders its replicas.
  void DeclareDead(DatanodeId id);
  /// Flat-arena block lookup; nullptr for never-allocated or abandoned ids.
  BlockInfo* FindBlock(BlockId block) {
    return block < blocks_.size() && blocks_[block].live ? &blocks_[block]
                                                         : nullptr;
  }
  const BlockInfo* FindBlock(BlockId block) const {
    return block < blocks_.size() && blocks_[block].live ? &blocks_[block]
                                                         : nullptr;
  }
  void UpdateNeeded(BlockId block);
  void ReplicationScan();
  bool TryScheduleReplication(BlockId block);
  void FinishTransfer(std::uint64_t transfer_id, bool ok);
  void AbortStaleTransfers();
  bool Serving(DatanodeId id) const;

  sim::Simulation& sim_;
  net::FlowNetwork& net_;
  net::NodeId master_;
  TopologyScript topology_;
  std::unique_ptr<BlockPlacementPolicy> policy_;
  Rng rng_;
  HdfsConfig config_;
  Instruments ins_;

  // Heartbeat expiry (HdfsConfig::heartbeat_recheck, ::detector).
  health::Liveness liveness_;
  // Cluster health manager (flaps, quarantine); owned by HogCluster.
  health::Quarantine* health_ = nullptr;

  std::vector<DatanodeEntry> datanodes_;
  // net::NodeId-indexed (node ids are dense): O(1) locality lookups on the
  // read path without hashing.
  std::vector<DatanodeId> by_net_node_;
  std::vector<FileInfo> files_;
  // BlockId-indexed arena (see BlockInfo::live); index 0 is unused since
  // ids start at 1.
  std::vector<BlockInfo> blocks_;
  BlockId next_block_ = 1;

  ReplicationQueue needed_;  // prioritized under-replicated queue
  std::unordered_map<std::uint64_t, Transfer> transfers_;
  /// In-flight re-replication destinations per block (exclusion lookups).
  std::unordered_multimap<BlockId, DatanodeId> pending_targets_;
  std::uint64_t next_transfer_ = 1;

  sim::PeriodicTimer replication_monitor_;

  bool available_ = true;
  Bytes replication_bytes_ = 0;
  std::function<void(BlockId)> on_block_missing_;
  std::function<void(DatanodeId)> on_datanode_dead_;
};

}  // namespace hogsim::hdfs
