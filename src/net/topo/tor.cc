// Two-tier ToR/aggregation fabric: each site's nodes are dealt round-robin
// into `racks` racks; a rack's uplink and downlink to the site aggregation
// layer carry sum(member NICs) / oversub. Intra-rack traffic sees only the
// NICs; cross-rack and WAN-bound traffic additionally crosses the rack
// fabric, so an oversubscribed site throttles shuffle storms and
// re-replication drains the way the star model never could.
//
//   tor:racks=4;oversub=4      4 racks, 4:1 oversubscription
//   tor:racks=4;oversub=0      non-blocking fabric (degenerate: byte-
//                              identical rates to star — the fabric links
//                              exist but can never be the bottleneck)
#include "src/net/topo/topology.h"

#include <cassert>

namespace hogsim::net::topo {

namespace {

// A link that can never bottleneck a flow: far above any NIC or uplink
// (kLoopbackRate is ~4.3e9 B/s) divided by any realistic flow count.
constexpr Rate kNonBlocking = 1e15;
// Placeholder for racks with no members yet; such links carry no flows.
constexpr Rate kEmptyRack = 1.0;

class TorTopology final : public SiteTopology {
 public:
  explicit TorTopology(Spec& spec) {
    racks_ = spec.Int("racks", 4, 1, 4096);
    oversub_ = spec.Number("oversub", 4.0, 0.0, 1e6);
  }

  std::string_view name() const override { return "tor"; }
  bool multi_rack() const override { return racks_ > 1; }

  void AddSite(SiteId site, Fabric& fabric) override {
    assert(site == site_.size());
    (void)site;
    SiteFabric sf;
    sf.racks.resize(static_cast<std::size_t>(racks_));
    const Rate initial = oversub_ <= 0.0 ? kNonBlocking : kEmptyRack;
    for (auto& rack : sf.racks) {
      rack.up = fabric.NewFabricLink(initial);
      rack.down = fabric.NewFabricLink(initial);
      rack.nominal = initial;
    }
    site_.push_back(std::move(sf));
  }

  void AddNode(SiteId site, NodeId node, Rate nic, Fabric& fabric,
               std::vector<LinkId>* resized) override {
    assert(site < site_.size());
    SiteFabric& sf = site_[site];
    const auto rack = sf.arrivals++ % static_cast<std::uint32_t>(racks_);
    if (node_.size() <= node) node_.resize(node + 1);
    node_[node] = {site, rack};
    if (oversub_ <= 0.0) return;  // non-blocking: capacity never moves
    RackLinks& rl = sf.racks[rack];
    rl.nic_sum += nic;
    rl.nominal = rl.nic_sum / oversub_;
    fabric.SetFabricLinkCapacity(rl.up, rl.nominal * sf.factor);
    fabric.SetFabricLinkCapacity(rl.down, rl.nominal * sf.factor);
    resized->push_back(rl.up);
    resized->push_back(rl.down);
  }

  std::uint32_t RackOf(NodeId node) const override {
    return node_[node].rack;
  }
  std::uint32_t RackCount(SiteId) const override {
    return static_cast<std::uint32_t>(racks_);
  }

  void IntraSitePath(NodeId src, NodeId dst, FlowId, SimTime,
                     std::vector<LinkId>* path) const override {
    const NodeInfo& a = node_[src];
    const NodeInfo& b = node_[dst];
    if (a.rack == b.rack) return;  // intra-rack: NICs only
    const SiteFabric& sf = site_[a.site];
    path->push_back(sf.racks[a.rack].up);
    path->push_back(sf.racks[b.rack].down);
  }

  void UplinkPath(NodeId node, FlowId,
                  std::vector<LinkId>* path) const override {
    const NodeInfo& info = node_[node];
    path->push_back(site_[info.site].racks[info.rack].up);
  }
  void DownlinkPath(NodeId node, FlowId,
                    std::vector<LinkId>* path) const override {
    const NodeInfo& info = node_[node];
    path->push_back(site_[info.site].racks[info.rack].down);
  }

  void ScaleFabric(SiteId site, double factor, Fabric& fabric,
                   std::vector<LinkId>* touched) override {
    assert(site < site_.size());
    SiteFabric& sf = site_[site];
    sf.factor = factor;  // relative to nominal: repeats never compound
    for (RackLinks& rl : sf.racks) {
      fabric.SetFabricLinkCapacity(rl.up, rl.nominal * factor);
      fabric.SetFabricLinkCapacity(rl.down, rl.nominal * factor);
      touched->push_back(rl.up);
      touched->push_back(rl.down);
    }
  }

 private:
  struct RackLinks {
    LinkId up = 0;
    LinkId down = 0;
    Rate nominal = 0;
    Rate nic_sum = 0;
  };
  struct SiteFabric {
    std::vector<RackLinks> racks;
    std::uint32_t arrivals = 0;
    double factor = 1.0;  // degrade-fabric scale, 1 = healthy
  };
  struct NodeInfo {
    SiteId site = kInvalidSite;
    std::uint32_t rack = 0;
  };

  int racks_;
  double oversub_;
  std::vector<SiteFabric> site_;
  std::vector<NodeInfo> node_;  // NodeId-indexed
};

}  // namespace

std::unique_ptr<SiteTopology> MakeTorTopology(Spec& spec) {
  return std::make_unique<TorTopology>(spec);
}

}  // namespace hogsim::net::topo
