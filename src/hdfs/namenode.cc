#include "src/hdfs/namenode.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>

#include "src/hdfs/datanode.h"
#include "src/health/quarantine.h"
#include "src/util/log.h"

namespace hogsim::hdfs {

constexpr health::LivenessNames kLivenessNames{
    "hdfs", "datanodes.live", "datanode.dead", "hdfs.datanodes.live",
    "hdfs.datanode.declared_dead", "hdfs.deadnode.detection_latency_s"};

Namenode::Namenode(sim::Simulation& sim, net::FlowNetwork& net,
                   net::NodeId master, TopologyScript topology,
                   std::unique_ptr<BlockPlacementPolicy> policy, Rng rng,
                   HdfsConfig config)
    : sim_(sim),
      net_(net),
      master_(master),
      topology_(std::move(topology)),
      policy_(std::move(policy)),
      rng_(rng),
      config_(config),
      ins_(sim.obs().metrics()),
      liveness_(sim, config_.detector, config_.heartbeat_recheck,
                kLivenessNames, [this](DatanodeId id) { DeclareDead(id); }) {
  assert(topology_ && policy_);
}

Namenode::~Namenode() = default;

void Namenode::Start() {
  liveness_.Start();
  replication_monitor_.Start(sim_, config_.replication_scan_interval,
                             [this] { ReplicationScan(); });
}

void Namenode::Crash() {
  if (!available_) return;
  available_ = false;
  liveness_.Stop();
  replication_monitor_.Stop();
  // In-flight namenode-directed transfers die with the daemon.
  std::vector<std::uint64_t> in_flight;
  for (const auto& [tid, t] : transfers_) in_flight.push_back(tid);
  for (std::uint64_t tid : in_flight) {
    Transfer& t = transfers_.at(tid);
    if (t.flow != net::kInvalidFlow) net_.CancelFlow(t.flow);
    if (t.disk_op != storage::FairQueue::kInvalidOp &&
        datanodes_[t.dst].daemon != nullptr) {
      datanodes_[t.dst].daemon->disk().Cancel(t.disk_op);
    }
    FinishTransfer(tid, false);
  }
  HOG_LOG(kWarn, sim_.now(), "namenode") << "CRASHED (file system unavailable)";
}

void Namenode::Restart() {
  if (available_) return;
  available_ = true;
  // Re-admission: a datanode whose process survived the outage re-registers
  // and replays its block report — its entry.blocks inventory mirrors its
  // disk, so the holders map is already truthful. Processes that died
  // while the master was down are pruned now.
  for (DatanodeId id = 0; id < datanodes_.size(); ++id) {
    const Datanode* daemon = datanodes_[id].daemon;
    if (daemon != nullptr && daemon->process_alive()) {
      liveness_.Readmit(id);
    } else {
      DeclareDead(id);
    }
  }
  // Recompute the needed-replication queue from scratch.
  for (BlockId block = 1; block < blocks_.size(); ++block) {
    if (blocks_[block].live) UpdateNeeded(block);
  }
  Start();
  HOG_LOG(kWarn, sim_.now(), "namenode")
      << "restarted; " << liveness_.live() << " datanodes re-admitted";
}

// ---- Datanode lifecycle ----------------------------------------------------

DatanodeId Namenode::RegisterDatanode(Datanode& daemon) {
  DatanodeEntry entry;
  entry.daemon = &daemon;
  entry.hostname = daemon.hostname();
  entry.rack = topology_(daemon.hostname());
  entry.net_node = daemon.net_node();
  datanodes_.push_back(std::move(entry));
  const auto id = static_cast<DatanodeId>(datanodes_.size() - 1);
  if (by_net_node_.size() <= daemon.net_node()) {
    by_net_node_.resize(daemon.net_node() + 1, kInvalidDatanode);
  }
  by_net_node_[daemon.net_node()] = id;
  liveness_.Register(id);
  return id;
}

void Namenode::Heartbeat(DatanodeId id) {
  if (!available_ || id >= datanodes_.size()) return;
  ins_.heartbeat_received.Add();
  // Late revival after a false-positive timeout: the node re-registers.
  // Its block report is not replayed; any still-held replicas will be
  // re-created by the replication monitor, which is conservative but safe.
  // The lost-then-revived cycle is the quarantine's primary evidence
  // stream (namenode analog of the jobtracker seam).
  if (liveness_.Heartbeat(id) && health_ != nullptr) {
    health_->OnFlap(datanodes_[id].net_node);
  }
}

void Namenode::DeclareDead(DatanodeId id) {
  if (!liveness_.Declare(id)) return;
  DatanodeEntry& entry = datanodes_[id];
  HOG_LOG(kInfo, sim_.now(), "namenode")
      << entry.hostname << " declared dead; " << entry.blocks.size()
      << " replicas lost";
  if (on_datanode_dead_) on_datanode_dead_(id);
  const std::unordered_set<BlockId> lost = std::move(entry.blocks);
  entry.blocks.clear();
  for (BlockId b : lost) {
    BlockInfo* info = FindBlock(b);
    if (info == nullptr) continue;
    info->holders.erase(id);
    if (info->holders.empty() && info->pending_replications == 0) {
      HOG_LOG(kWarn, sim_.now(), "namenode")
          << "block " << b << " of " << files_[info->file].name
          << " lost: last replica was on " << entry.hostname;
      if (on_block_missing_) on_block_missing_(b);
    }
    UpdateNeeded(b);
  }
}

DatanodeId Namenode::DatanodeAt(net::NodeId node) const {
  if (node >= by_net_node_.size()) return kInvalidDatanode;
  const DatanodeId id = by_net_node_[node];
  if (id == kInvalidDatanode) return kInvalidDatanode;
  return liveness_.alive(id) ? id : kInvalidDatanode;
}

// ---- File namespace --------------------------------------------------------

FileId Namenode::CreateFile(std::string name, int replication) {
  FileInfo info;
  info.name = std::move(name);
  info.replication =
      replication > 0 ? replication : config_.default_replication;
  files_.push_back(std::move(info));
  return static_cast<FileId>(files_.size() - 1);
}

FileId Namenode::ImportFile(std::string name, Bytes size, int replication) {
  const FileId file = CreateFile(std::move(name), replication);
  const int rep = files_[file].replication;
  Bytes remaining = size;
  while (remaining > 0) {
    const Bytes block_size = std::min(remaining, kBlockSize);
    remaining -= block_size;
    const BlockId block = AllocateBlock(file, block_size);
    const std::vector<DatanodeId> targets =
        policy_->ChooseTargets(rep, kInvalidDatanode, {}, block_size, *this,
                               rng_);
    if (targets.empty()) {
      throw std::runtime_error("ImportFile: no datanode can hold a block of " +
                               files_[file].name);
    }
    for (DatanodeId t : targets) {
      const bool ok = datanodes_[t].daemon->disk().Reserve(block_size);
      assert(ok);  // policy only proposes nodes with space
      (void)ok;
    }
    CommitBlock(block, targets);
  }
  return file;
}

std::vector<BlockLocation> Namenode::GetFileBlocks(FileId file) const {
  assert(file < files_.size());
  std::vector<BlockLocation> out;
  for (BlockId b : files_[file].blocks) {
    const BlockInfo* info = FindBlock(b);
    if (info == nullptr) continue;
    BlockLocation loc;
    loc.block = b;
    loc.size = info->size;
    // Deterministic replica order (holders is a hash set).
    std::vector<DatanodeId> holders(info->holders.begin(),
                                    info->holders.end());
    std::sort(holders.begin(), holders.end());
    for (DatanodeId dn : holders) {
      if (!liveness_.alive(dn)) continue;
      loc.datanodes.push_back(dn);
      loc.net_nodes.push_back(datanodes_[dn].net_node);
      loc.racks.push_back(datanodes_[dn].rack);
    }
    out.push_back(std::move(loc));
  }
  return out;
}

Bytes Namenode::FileSize(FileId file) const {
  assert(file < files_.size());
  Bytes total = 0;
  for (BlockId b : files_[file].blocks) {
    const BlockInfo* info = FindBlock(b);
    if (info != nullptr) total += info->size;
  }
  return total;
}

int Namenode::FileReplication(FileId file) const {
  assert(file < files_.size());
  return files_[file].replication;
}

const std::string& Namenode::FileName(FileId file) const {
  assert(file < files_.size());
  return files_[file].name;
}

bool Namenode::FileExists(FileId file) const { return file < files_.size(); }

// ---- Block-level operations -------------------------------------------------

BlockId Namenode::AllocateBlock(FileId file, Bytes size) {
  assert(file < files_.size());
  const BlockId id = next_block_++;
  if (blocks_.size() <= id) blocks_.resize(id + 1);
  BlockInfo& info = blocks_[id];
  info.live = true;
  info.file = file;
  info.size = size;
  info.replication = files_[file].replication;
  files_[file].blocks.push_back(id);
  return id;
}

std::vector<DatanodeId> Namenode::ChooseTargets(
    int count, DatanodeId writer, const std::vector<DatanodeId>& exclude,
    Bytes size) {
  return policy_->ChooseTargets(count, writer, exclude, size, *this, rng_);
}

void Namenode::CommitBlock(BlockId block,
                           const std::vector<DatanodeId>& holders) {
  BlockInfo* info = FindBlock(block);
  if (info == nullptr) return;  // block abandoned mid-write
  info->committed = true;
  for (DatanodeId dn : holders) {
    // A pipeline member can die between its successful write and the
    // client's commit. Recording it anyway would leave a phantom replica
    // on a dead entry that UpdateNeeded counts as live, suppressing
    // re-replication of this block forever. Drop it; if the node ever
    // revives, the replication monitor conservatively re-creates the copy.
    if (!liveness_.alive(dn)) continue;
    info->holders.insert(dn);
    datanodes_[dn].blocks.insert(block);
    ins_.block_placed.Add();
  }
  if (info->holders.empty() && info->pending_replications == 0) {
    // Every pipeline member died before the commit landed.
    HOG_LOG(kWarn, sim_.now(), "namenode")
        << "block " << block << " of " << files_[info->file].name
        << " committed with no surviving pipeline member";
    if (on_block_missing_) on_block_missing_(block);
  }
  UpdateNeeded(block);
}

void Namenode::AbandonBlock(BlockId block) {
  BlockInfo* info = FindBlock(block);
  if (info == nullptr) return;
  assert(info->holders.empty());
  auto& file_blocks = files_[info->file].blocks;
  std::erase(file_blocks, block);
  needed_.Erase(block);
  blocks_[block] = BlockInfo{};  // tombstone the arena slot
}

void Namenode::AddReplica(BlockId block, DatanodeId dn) {
  BlockInfo* info = FindBlock(block);
  if (info == nullptr) return;
  info->holders.insert(dn);
  datanodes_[dn].blocks.insert(block);
  ins_.block_placed.Add();
  UpdateNeeded(block);
}

void Namenode::RemoveReplica(BlockId block, DatanodeId dn) {
  BlockInfo* info = FindBlock(block);
  if (info == nullptr) return;
  if (info->holders.erase(dn) == 0) return;
  DatanodeEntry& entry = datanodes_[dn];
  entry.blocks.erase(block);
  if (entry.daemon != nullptr) entry.daemon->disk().Release(info->size);
  UpdateNeeded(block);
}

void Namenode::SetBlockReplication(BlockId block, int replication) {
  BlockInfo* info = FindBlock(block);
  if (info == nullptr || replication <= 0) return;
  if (info->replication == replication) return;
  info->replication = replication;
  // A raised target surfaces a new deficit; a lowered one may retire a
  // queued entry. Either way the queue must reflect the new target now —
  // the auditor cross-checks queue membership against it every tick.
  UpdateNeeded(block);
}

Bytes Namenode::StoredReplicaBytes() const {
  Bytes total = 0;
  for (const BlockInfo& info : blocks_) {
    if (!info.live || !info.committed) continue;
    total += info.size * static_cast<Bytes>(info.holders.size());
  }
  return total;
}

Bytes Namenode::LogicalBytes() const {
  Bytes total = 0;
  for (const BlockInfo& info : blocks_) {
    if (info.live && info.committed) total += info.size;
  }
  return total;
}

std::vector<DatanodeId> Namenode::BlockHolders(BlockId block) const {
  const BlockInfo* info = FindBlock(block);
  if (info == nullptr) return {};
  std::vector<DatanodeId> out;
  for (DatanodeId dn : info->holders) {
    if (liveness_.alive(dn)) out.push_back(dn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Bytes Namenode::BlockSize(BlockId block) const {
  const BlockInfo* info = FindBlock(block);
  return info != nullptr ? info->size : 0;
}

// ---- ClusterView -------------------------------------------------------------

std::vector<DatanodeId> Namenode::WritableDatanodes(Bytes size) const {
  std::vector<DatanodeId> out;
  for (DatanodeId id = 0; id < datanodes_.size(); ++id) {
    const DatanodeEntry& e = datanodes_[id];
    if (liveness_.alive(id) && e.daemon != nullptr && e.daemon->can_serve() &&
        e.daemon->disk().free() >= size) {
      out.push_back(id);
    }
  }
  return out;
}

const std::string& Namenode::RackOf(DatanodeId id) const {
  assert(id < datanodes_.size());
  return datanodes_[id].rack;
}

bool Namenode::Probated(DatanodeId id) const {
  assert(id < datanodes_.size());
  return health_ != nullptr && health_->Probated(datanodes_[id].net_node);
}

std::size_t Namenode::missing_blocks() const {
  std::size_t count = 0;
  for (const BlockInfo& info : blocks_) {
    if (!info.live || !info.committed) continue;
    bool any = false;
    // Serving(), not alive: a replica on a zombie (process up, disk gone)
    // cannot actually be read back, so it must not mask a missing block.
    for (DatanodeId dn : info.holders) any |= Serving(dn);
    if (!any) ++count;
  }
  return count;
}

// ---- Replication monitor ------------------------------------------------------

bool Namenode::Serving(DatanodeId id) const {
  const Datanode* daemon = datanodes_[id].daemon;
  return liveness_.alive(id) && daemon != nullptr && daemon->can_serve();
}

void Namenode::UpdateNeeded(BlockId block) {
  const BlockInfo* found = FindBlock(block);
  if (found == nullptr) {
    needed_.Erase(block);
    return;
  }
  const BlockInfo& info = *found;
  if (!info.committed) return;
  const int replicas = static_cast<int>(info.holders.size());
  std::vector<std::string_view> racks;
  std::vector<std::string_view> sites;
  for (DatanodeId dn : info.holders) {
    const std::string_view rack = datanodes_[dn].rack;
    if (std::find(racks.begin(), racks.end(), rack) == racks.end()) {
      racks.push_back(rack);
    }
    const std::string_view site = SiteOfRack(rack);
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
      sites.push_back(site);
    }
  }
  const int effective = replicas + info.pending_replications;
  if (effective < info.replication && !info.holders.empty()) {
    // Priority is keyed by surviving replicas alone: a block at one live
    // copy stays critical even while a repair is already in flight. The
    // deficit keys the within-level order, so a queued block that loses
    // another replica moves ahead of its stale same-level peers.
    // Failure-domain escalation: grid preemptions take whole slices of a
    // site at once, and a multi-rack fabric (src/net/topo) loses whole
    // racks to one ToR, so a block whose survivors huddle on too few
    // sites or racks is escalated past what its replica count alone
    // would rank — else its repair starves through exactly the storm
    // that kills it. Under star, racks == sites and this reduces to the
    // site-only escalation bit-for-bit.
    needed_.Insert(block,
                   ReplicationQueue::LevelFor(replicas, info.replication,
                                              static_cast<int>(sites.size()),
                                              static_cast<int>(racks.size())),
                   info.replication - replicas);
  } else {
    needed_.Erase(block);
  }
  ins_.blocks_under_replicated.Set(static_cast<double>(needed_.size()));
  ins_.blocks_critical.Set(
      static_cast<double>(needed_.level_size(ReplicationQueue::kCritical)));
}

void Namenode::ReplicationScan() {
  AbortStaleTransfers();
  // Bounded work per scan keeps large failure storms O(1) per tick; the
  // queue drains over successive scans, throttled by per-node streams.
  // The budget goes to the most endangered blocks first: after a
  // site-scale storm, blocks one failure from loss repair before blocks
  // merely short of their tenth replica.
  constexpr std::size_t kMaxAttemptsPerScan = 512;
  const std::vector<BlockId> batch = needed_.Collect(kMaxAttemptsPerScan);
  for (BlockId b : batch) TryScheduleReplication(b);
}

bool Namenode::TryScheduleReplication(BlockId block) {
  BlockInfo* found = FindBlock(block);
  if (found == nullptr) return false;
  BlockInfo& info = *found;
  const int replicas = static_cast<int>(info.holders.size());
  const int deficit = info.replication - replicas - info.pending_replications;
  if (deficit <= 0 || info.holders.empty()) return false;

  // Endangered blocks may exceed the soft stream throttle up to the hard
  // cap (HDFS's two-tier limit). After a site-scale storm every surviving
  // holder is saturated sourcing routine repairs; a single cap starves
  // exactly the blocks closest to loss while their sources die under them.
  const int stream_cap =
      ReplicationQueue::LevelFor(replicas, info.replication) <=
              ReplicationQueue::kBadly
          ? config_.max_replication_streams_hard
          : config_.max_replication_streams;

  // Source: a serving replica with a free outbound stream.
  DatanodeId src = kInvalidDatanode;
  std::vector<DatanodeId> holders(info.holders.begin(), info.holders.end());
  std::sort(holders.begin(), holders.end());
  for (DatanodeId dn : holders) {
    if (Serving(dn) && datanodes_[dn].repl_out < stream_cap) {
      src = dn;
      break;
    }
  }
  if (src == kInvalidDatanode) return false;

  // Target: placement policy, excluding current + pending holders, limited
  // to nodes with a free inbound stream.
  std::vector<DatanodeId> exclude = holders;
  const auto [p_begin, p_end] = pending_targets_.equal_range(block);
  for (auto it2 = p_begin; it2 != p_end; ++it2) {
    exclude.push_back(it2->second);
  }
  const std::vector<DatanodeId> targets =
      policy_->ChooseTargets(1, kInvalidDatanode, exclude, info.size, *this,
                             rng_);
  if (targets.empty()) return false;
  const DatanodeId dst = targets.front();
  if (datanodes_[dst].repl_in >= stream_cap) return false;
  if (!datanodes_[dst].daemon->disk().Reserve(info.size)) return false;

  const std::uint64_t tid = next_transfer_++;
  Transfer transfer{block, src, dst, net::kInvalidFlow,
                    storage::FairQueue::kInvalidOp, sim_.now()};
  ++datanodes_[src].repl_out;
  ++datanodes_[dst].repl_in;
  ++info.pending_replications;
  pending_targets_.emplace(block, dst);
  UpdateNeeded(block);

  transfer.flow = net_.StartFlow(
      datanodes_[src].net_node, datanodes_[dst].net_node, info.size,
      [this, tid](bool ok) {
        auto t = transfers_.find(tid);
        if (t == transfers_.end()) return;
        t->second.flow = net::kInvalidFlow;
        if (!ok) {
          FinishTransfer(tid, false);
          return;
        }
        // Write the received block to the target's disk.
        Datanode* dst_daemon = datanodes_[t->second.dst].daemon;
        Bytes size = BlockSize(t->second.block);
        if (dst_daemon == nullptr || !dst_daemon->can_serve()) {
          FinishTransfer(tid, false);
          return;
        }
        const auto op = dst_daemon->disk().Write(
            size, [this, tid] { FinishTransfer(tid, true); });
        if (op == storage::FairQueue::kInvalidOp) {
          FinishTransfer(tid, false);
          return;
        }
        t->second.disk_op = op;
      });
  transfers_.emplace(tid, transfer);
  return true;
}

void Namenode::FinishTransfer(std::uint64_t transfer_id, bool ok) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  const Transfer t = it->second;
  transfers_.erase(it);
  {
    auto [p_begin, p_end] = pending_targets_.equal_range(t.block);
    for (auto pit = p_begin; pit != p_end; ++pit) {
      if (pit->second == t.dst) {
        pending_targets_.erase(pit);
        break;
      }
    }
  }

  --datanodes_[t.src].repl_out;
  --datanodes_[t.dst].repl_in;

  BlockInfo* binfo = FindBlock(t.block);
  const Bytes size = binfo != nullptr ? binfo->size : 0;
  if (binfo != nullptr) {
    --binfo->pending_replications;
  }
  const bool block_live = binfo != nullptr;
  const bool dst_ok = liveness_.alive(t.dst) &&
                      datanodes_[t.dst].daemon != nullptr &&
                      datanodes_[t.dst].daemon->can_serve();
  if (ok && block_live && dst_ok) {
    replication_bytes_ += size;
    ins_.replication_completed.Add();
    // The re-replication pipeline span: schedule -> WAN copy -> disk write.
    sim_.obs().tracer().EmitSpan("hdfs", "replication", t.started,
                                 sim_.now() - t.started, t.block);
    AddReplica(t.block, t.dst);
  } else {
    ins_.replication_failed.Add();
    // Return the reservation; a dead target's disk is gone anyway but the
    // accounting keeps the object consistent.
    if (datanodes_[t.dst].daemon != nullptr && size > 0) {
      datanodes_[t.dst].daemon->disk().Release(size);
    }
    if (block_live) {
      // The source may have died mid-copy; if this was the last repair in
      // flight for a holder-less block, the data is now unrecoverable.
      // DeclareDead skipped the missing callback because a repair was
      // pending — report it here, when the last hope actually fails.
      if (binfo->holders.empty() && binfo->pending_replications == 0) {
        HOG_LOG(kWarn, sim_.now(), "namenode")
            << "block " << t.block << " of " << files_[binfo->file].name
            << " lost: last replica died mid-repair";
        if (on_block_missing_) on_block_missing_(t.block);
      }
      UpdateNeeded(t.block);
    }
  }
}

void Namenode::AbortStaleTransfers() {
  std::vector<std::uint64_t> stale;
  for (const auto& [tid, t] : transfers_) {
    const Datanode* src = datanodes_[t.src].daemon;
    const Datanode* dst = datanodes_[t.dst].daemon;
    const bool src_gone = src == nullptr || !src->can_serve();
    const bool dst_gone = dst == nullptr || !dst->process_alive();
    if (src_gone || dst_gone || !BlockExists(t.block)) {
      stale.push_back(tid);
    }
  }
  for (std::uint64_t tid : stale) {
    Transfer& t = transfers_.at(tid);
    if (t.flow != net::kInvalidFlow) net_.CancelFlow(t.flow);
    if (t.disk_op != storage::FairQueue::kInvalidOp &&
        datanodes_[t.dst].daemon != nullptr) {
      datanodes_[t.dst].daemon->disk().Cancel(t.disk_op);
    }
    FinishTransfer(tid, false);
  }
}

}  // namespace hogsim::hdfs
