// Prioritized under-replication queue, modeled on HDFS's
// UnderReplicatedBlocks: blocks are bucketed by how close they are to data
// loss, and the replication monitor spends its per-scan budget on the most
// endangered bucket first. A block one failure away from loss (a single
// surviving replica) re-replicates before a block at 9 of 10.
//
// Within a level, blocks are ordered by worst deficit first: a block that
// loses another replica while already queued moves ahead of stale
// same-level entries instead of waiting behind them in BlockId order until
// the scan drains to it. Re-inserting with a changed level or deficit
// repositions the entry.
//
// Determinism: each level is an ordered std::set keyed (deficit desc,
// BlockId asc), so a scan visits blocks in a fully specified order — no
// iteration-order dependence on hashing.
#pragma once

#include <array>
#include <cstddef>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/hdfs/types.h"

namespace hogsim::hdfs {

class ReplicationQueue {
 public:
  /// Priority levels, most endangered first.
  ///   kCritical — at most one replica survives on a live node (next
  ///               failure loses the block);
  ///   kBadly    — half or more of the target redundancy is gone. With
  ///               replication 10 spread over ~5 sites, five lost replicas
  ///               usually means whole failure domains' worth of copies
  ///               are gone, not scattered stragglers;
  ///   kNormal   — under-replicated but comfortably redundant.
  /// LevelFor ranks by surviving-replica count alone; the namenode
  /// escalates the level it inserts with when the survivors huddle on too
  /// few sites (one site — critical, two — at least badly), because a
  /// site-batch preemption takes co-located copies together.
  enum Level : int { kCritical = 0, kBadly = 1, kNormal = 2 };
  static constexpr int kLevels = 3;

  /// Computes the level for a block with `live` counted replicas against a
  /// `replication` target. Callers decide *whether* the block belongs in
  /// the queue; this only ranks it.
  static Level LevelFor(int live, int replication) {
    if (live <= 1) return kCritical;
    if (live * 2 <= replication) return kBadly;
    return kNormal;
  }

  /// Spread-aware overload: `sites` is the number of distinct sites the
  /// counted replicas span. Survivors huddled on one site are one
  /// site-batch from loss regardless of count; on two sites, half of one.
  static Level LevelFor(int live, int replication, int sites) {
    const Level level = LevelFor(live, replication);
    if (live <= 1) return level;
    if (sites <= 1) return kCritical;
    if (sites == 2 && level == kNormal) return kBadly;
    return level;
  }

  /// Rack-aware overload for multi-rack topologies (src/net/topo): `racks`
  /// is the number of distinct racks the counted replicas span. Racks
  /// escalate exactly the way sites do one tier down — one rack is one
  /// ToR failure from unreachability, two racks at most half a fabric —
  /// and since a rack never spans sites, racks >= sites always holds, so
  /// under the star topology (racks == sites) this degenerates to the
  /// site overload bit-for-bit.
  static Level LevelFor(int live, int replication, int sites, int racks) {
    const Level level = LevelFor(live, replication, sites);
    if (live <= 1) return level;
    if (racks <= 1) return kCritical;
    if (racks == 2 && level == kNormal) return kBadly;
    return level;
  }

  /// Inserts `block` at `level` with the given replica `deficit`, moving
  /// it if it was queued at another level or with another deficit (a block
  /// whose deficit worsens reorders ahead of its same-level peers).
  /// Re-inserting with identical (level, deficit) is a no-op.
  void Insert(BlockId block, Level level, int deficit = 1);

  /// Removes `block` from whichever level holds it (no-op if absent).
  void Erase(BlockId block);

  bool contains(BlockId block) const { return where_.contains(block); }

  /// Level the block is queued at, or -1 if absent.
  int level_of(BlockId block) const {
    auto it = where_.find(block);
    return it == where_.end() ? -1 : it->second.level;
  }

  /// Deficit the block is queued with, or 0 if absent.
  int deficit_of(BlockId block) const {
    auto it = where_.find(block);
    return it == where_.end() ? 0 : it->second.deficit;
  }

  std::size_t size() const { return where_.size(); }
  bool empty() const { return where_.empty(); }
  std::size_t level_size(Level level) const { return levels_[level].size(); }

  /// Up to `budget` blocks, most endangered first: by level, then worst
  /// deficit, then BlockId — the replication monitor's scan batch.
  std::vector<BlockId> Collect(std::size_t budget) const;

 private:
  struct Entry {
    int deficit = 0;
    BlockId block = kInvalidBlock;
  };
  struct WorstFirst {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deficit != b.deficit) return a.deficit > b.deficit;
      return a.block < b.block;
    }
  };
  struct Where {
    int level = 0;
    int deficit = 0;
  };

  std::array<std::set<Entry, WorstFirst>, kLevels> levels_;
  std::unordered_map<BlockId, Where> where_;
};

}  // namespace hogsim::hdfs
