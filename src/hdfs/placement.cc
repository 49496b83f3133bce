#include "src/hdfs/placement.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "src/hdfs/topology.h"

namespace hogsim::hdfs {
namespace {

/// A candidate pool: one WritableDatanodes scan per ChooseTargets call,
/// with O(1) swap-removal as replicas are chosen.
class Pool {
 public:
  Pool(const ClusterView& view, Bytes size,
       const std::vector<DatanodeId>& exclude)
      : view_(&view), nodes_(view.WritableDatanodes(size)) {
    if (!exclude.empty()) {
      const std::unordered_set<DatanodeId> taken(exclude.begin(),
                                                 exclude.end());
      std::erase_if(nodes_, [&](DatanodeId id) { return taken.contains(id); });
    }
  }

  /// Removes and returns a uniformly random candidate satisfying `pred`;
  /// kInvalidDatanode when none qualifies.
  template <typename Pred>
  DatanodeId TakeRandom(Rng& rng, Pred pred) {
    // Collect matching indices, pick one, swap-remove.
    matches_.clear();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (pred(nodes_[i])) matches_.push_back(i);
    }
    if (matches_.empty()) return kInvalidDatanode;
    const std::size_t pick = matches_[static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(matches_.size()) - 1))];
    const DatanodeId id = nodes_[pick];
    nodes_[pick] = nodes_.back();
    nodes_.pop_back();
    return id;
  }

  /// TakeRandom with health deprioritization: candidates in quarantine
  /// probation satisfy `pred` only after every healthy candidate has been
  /// ruled out. With no probated node the first tier matches exactly the
  /// legacy set and an empty tier draws no RNG, so the byte-stream is
  /// unchanged.
  template <typename Pred>
  DatanodeId TakeHealthyFirst(Rng& rng, Pred pred) {
    const DatanodeId healthy = TakeRandom(rng, [&](DatanodeId id) {
      return !view_->Probated(id) && pred(id);
    });
    if (healthy != kInvalidDatanode) return healthy;
    return TakeRandom(rng, pred);
  }

  DatanodeId TakeHealthyFirst(Rng& rng) {
    return TakeHealthyFirst(rng, [](DatanodeId) { return true; });
  }

  /// Removes a specific node if present; true on success.
  bool TakeExact(DatanodeId id) {
    const auto it = std::find(nodes_.begin(), nodes_.end(), id);
    if (it == nodes_.end()) return false;
    *it = nodes_.back();
    nodes_.pop_back();
    return true;
  }

 private:
  const ClusterView* view_;
  std::vector<DatanodeId> nodes_;
  std::vector<std::size_t> matches_;
};

}  // namespace

std::vector<DatanodeId> DefaultPlacement::ChooseTargets(
    int count, DatanodeId writer, const std::vector<DatanodeId>& exclude,
    Bytes size, const ClusterView& view, Rng& rng) const {
  std::vector<DatanodeId> result;
  Pool pool(view, size, exclude);

  // Replica 1: the writer's node when it is a usable, healthy datanode (a
  // probated writer forfeits write locality rather than anchoring the
  // pipeline on a degraded disk).
  {
    DatanodeId first = kInvalidDatanode;
    if (writer != kInvalidDatanode && !view.Probated(writer) &&
        pool.TakeExact(writer)) {
      first = writer;
    } else {
      first = pool.TakeHealthyFirst(rng);
    }
    if (first == kInvalidDatanode) return result;
    result.push_back(first);
  }
  if (static_cast<int>(result.size()) >= count) return result;

  const std::string& first_rack = view.RackOf(result.front());

  // Replica 2: a different rack, when one exists.
  {
    DatanodeId pick = pool.TakeHealthyFirst(rng, [&](DatanodeId id) {
      return view.RackOf(id) != first_rack;
    });
    if (pick == kInvalidDatanode) pick = pool.TakeHealthyFirst(rng);
    if (pick == kInvalidDatanode) return result;
    result.push_back(pick);
  }
  if (static_cast<int>(result.size()) >= count) return result;

  // Replica 3: the same rack as replica 2 (guards the first rack's loss
  // while keeping one intra-rack copy for cheap reads).
  {
    const std::string& second_rack = view.RackOf(result[1]);
    DatanodeId pick = pool.TakeHealthyFirst(rng, [&](DatanodeId id) {
      return view.RackOf(id) == second_rack;
    });
    if (pick == kInvalidDatanode) pick = pool.TakeHealthyFirst(rng);
    if (pick == kInvalidDatanode) return result;
    result.push_back(pick);
  }

  // Remaining replicas: uniformly random.
  while (static_cast<int>(result.size()) < count) {
    const DatanodeId pick = pool.TakeHealthyFirst(rng);
    if (pick == kInvalidDatanode) break;
    result.push_back(pick);
  }
  return result;
}

std::vector<DatanodeId> SiteAwarePlacement::ChooseTargets(
    int count, DatanodeId writer, const std::vector<DatanodeId>& exclude,
    Bytes size, const ClusterView& view, Rng& rng) const {
  std::vector<DatanodeId> result;
  Pool pool(view, size, exclude);
  // Rack strings refine sites under a multi-rack topology (src/net/topo):
  // "/fnal.gov/r3" is rack r3 of site fnal.gov. Spread is sought at both
  // granularities — distinct sites first, then distinct racks. The used
  // sets hold at most one entry per replica, so they are small vectors,
  // searched linearly, of views into the view's rack strings (stable: no
  // datanode registers during the call).
  std::vector<std::string_view> sites_used;
  std::vector<std::string_view> racks_used;
  const auto used = [](const std::vector<std::string_view>& set,
                       std::string_view name) {
    return std::find(set.begin(), set.end(), name) != set.end();
  };
  const auto mark = [&](DatanodeId id) {
    const std::string_view rack = view.RackOf(id);
    if (!used(sites_used, SiteOfRack(rack))) {
      sites_used.push_back(SiteOfRack(rack));
    }
    if (!used(racks_used, rack)) racks_used.push_back(rack);
  };
  for (DatanodeId id : exclude) mark(id);

  // Replica 1: writer-local for map-output locality (skipped, like in the
  // rack-aware policy, while the writer sits in probation).
  {
    DatanodeId first = kInvalidDatanode;
    if (writer != kInvalidDatanode && !view.Probated(writer) &&
        pool.TakeExact(writer)) {
      first = writer;
    } else {
      first = pool.TakeHealthyFirst(rng);
    }
    if (first == kInvalidDatanode) return result;
    result.push_back(first);
    mark(first);
  }

  // Remaining replicas: always prefer a site not covered yet, so the block
  // survives any single-site (and with replication 10, most multi-site)
  // failures; once every site holds a copy, prefer an uncovered rack (a
  // ToR failure takes a rack's replicas together); only then fall back to
  // any node. Under star every rack IS a site, so the rack tier never
  // matches — and an empty match set draws no RNG, keeping the placement
  // byte-stream identical to the pre-topology policy.
  while (static_cast<int>(result.size()) < count) {
    DatanodeId pick = pool.TakeHealthyFirst(rng, [&](DatanodeId id) {
      return !used(sites_used, SiteOfRack(view.RackOf(id)));
    });
    if (pick == kInvalidDatanode) {
      pick = pool.TakeHealthyFirst(rng, [&](DatanodeId id) {
        return !used(racks_used, view.RackOf(id));
      });
    }
    if (pick == kInvalidDatanode) pick = pool.TakeHealthyFirst(rng);
    if (pick == kInvalidDatanode) break;
    result.push_back(pick);
    mark(pick);
  }
  return result;
}

std::unique_ptr<BlockPlacementPolicy> MakeDefaultPlacement() {
  return std::make_unique<DefaultPlacement>();
}

std::unique_ptr<BlockPlacementPolicy> MakeSiteAwarePlacement() {
  return std::make_unique<SiteAwarePlacement>();
}

}  // namespace hogsim::hdfs
