#include "src/hdfs/balancer.h"

#include <algorithm>
#include <vector>

#include "src/hdfs/datanode.h"
#include "src/util/log.h"

namespace hogsim::hdfs {

Balancer::Balancer(Namenode& namenode, BalancerConfig config)
    : nn_(namenode), config_(config) {}

void Balancer::Start() {
  timer_.Start(nn_.simulation(), config_.pass_interval,
               [this] { RunPass(); });
}

void Balancer::Stop() { timer_.Stop(); }

int Balancer::RunPass() {
  if (!nn_.available()) return 0;  // master outage: nothing to coordinate
  // Compute cluster-mean utilization over live, serving datanodes.
  struct Entry {
    DatanodeId id;
    double utilization;
  };
  std::vector<Entry> entries;
  double mean = 0.0;
  for (DatanodeId id = 0; id < nn_.datanode_count(); ++id) {
    if (!nn_.DatanodeServing(id)) continue;
    const auto& disk = nn_.datanode(id).daemon->disk();
    const double u =
        static_cast<double>(disk.used()) / static_cast<double>(disk.capacity());
    entries.push_back({id, u});
    mean += u;
  }
  if (entries.size() < 2) return 0;
  mean /= static_cast<double>(entries.size());

  std::vector<Entry> sources, sinks;
  for (const Entry& e : entries) {
    if (e.utilization > mean + config_.threshold) sources.push_back(e);
    if (e.utilization < mean - config_.threshold) sinks.push_back(e);
  }
  // Most-loaded sources feed least-loaded sinks first.
  std::sort(sources.begin(), sources.end(), [](const Entry& a, const Entry& b) {
    return a.utilization > b.utilization ||
           (a.utilization == b.utilization && a.id < b.id);
  });
  std::sort(sinks.begin(), sinks.end(), [](const Entry& a, const Entry& b) {
    return a.utilization < b.utilization ||
           (a.utilization == b.utilization && a.id < b.id);
  });

  int started = 0;
  std::size_t sink_i = 0;
  for (const Entry& src : sources) {
    if (active_moves_ >= config_.max_concurrent_moves) break;
    if (sink_i >= sinks.size()) break;
    // Pick a block on the source whose replica set excludes the sink.
    const auto& src_entry = nn_.datanode(src.id);
    BlockId candidate = kInvalidBlock;
    const DatanodeId dst = sinks[sink_i].id;
    for (BlockId b : src_entry.blocks) {
      const auto holders = nn_.BlockHolders(b);
      if (std::find(holders.begin(), holders.end(), dst) == holders.end() &&
          nn_.datanode(dst).daemon->disk().free() >= nn_.BlockSize(b)) {
        if (candidate == kInvalidBlock || b < candidate) candidate = b;
      }
    }
    if (candidate == kInvalidBlock) continue;
    StartMove(candidate, src.id, dst);
    ++started;
    ++sink_i;
  }
  return started;
}

void Balancer::StartMove(BlockId block, DatanodeId src, DatanodeId dst) {
  const Bytes size = nn_.BlockSize(block);
  Datanode* dst_daemon = nn_.datanode(dst).daemon;
  if (!dst_daemon->disk().Reserve(size)) return;
  ++active_moves_;
  nn_.network().StartFlow(
      nn_.datanode(src).net_node, nn_.datanode(dst).net_node, size,
      [this, block, src, dst, size, dst_daemon](bool ok) {
        --active_moves_;
        if (!ok || !nn_.BlockExists(block) || !dst_daemon->can_serve()) {
          dst_daemon->disk().Release(size);
          return;
        }
        // Replica moves: add at the sink, then drop the source copy.
        nn_.AddReplica(block, dst);
        nn_.RemoveReplica(block, src);
        ++moves_completed_;
        bytes_moved_ += size;
      });
}

}  // namespace hogsim::hdfs
