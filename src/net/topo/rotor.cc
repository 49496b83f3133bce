// Time-sliced optical rotor fabric (after replicant-opera's
// flowsim_topo_rotor.cc and RotorNet/Opera): each site's racks attach to a
// rotor switch through one optical port pair; in slice s rack r's transmit
// port points at rack (r + s + 1) mod R, cycling through all R-1
// non-identity rotations. A matched rack pair talks directly over the two
// ports; unmatched pairs relay through the source's current partner
// (RotorLB-style two-hop, charged in the current slice as a fluid
// shortcut). The slice index is a pure function of sim time — advancing a
// slice consumes no run RNG, and FlowNetwork's boundary timer is lazy: it
// is armed only while slice-dependent flows exist.
//
// WAN-bound traffic bypasses the rotor (a hybrid design: external traffic
// rides the electrical packet network, as the optical fabric cannot reach
// off-site), so rotor:racks=1 is byte-identical to star.
//
//   rotor:racks=4                       4 racks, 100 ms slices, 10 Gbps ports
//   rotor:racks=8;slice_ms=50;gbps=25   faster rotation, fatter ports
#include "src/net/topo/topology.h"

#include <cassert>

namespace hogsim::net::topo {

namespace {

class RotorTopology final : public SiteTopology {
 public:
  explicit RotorTopology(Spec& spec) {
    racks_ = spec.Int("racks", 4, 1, 4096);
    const double slice_ms = spec.Number("slice_ms", 100.0, 1e-3, 1e7);
    const double gbps = spec.Number("gbps", 10.0, 1e-3, 1e6);
    slice_ = static_cast<SimDuration>(slice_ms * kMillisecond);
    rate_ = Gbps(gbps);
  }

  std::string_view name() const override { return "rotor"; }
  bool multi_rack() const override { return racks_ > 1; }

  void AddSite(SiteId site, Fabric& fabric) override {
    assert(site == site_.size());
    (void)site;
    SiteFabric sf;
    sf.up.reserve(static_cast<std::size_t>(racks_));
    sf.down.reserve(static_cast<std::size_t>(racks_));
    for (int r = 0; r < racks_; ++r) {
      sf.up.push_back(fabric.NewFabricLink(rate_));
      sf.down.push_back(fabric.NewFabricLink(rate_));
    }
    site_.push_back(std::move(sf));
  }

  void AddNode(SiteId site, NodeId node, Rate, Fabric&,
               std::vector<LinkId>*) override {
    assert(site < site_.size());
    SiteFabric& sf = site_[site];
    const auto rack = sf.arrivals++ % static_cast<std::uint32_t>(racks_);
    if (node_.size() <= node) node_.resize(node + 1);
    node_[node] = {site, rack};
  }

  std::uint32_t RackOf(NodeId node) const override {
    return node_[node].rack;
  }
  std::uint32_t RackCount(SiteId) const override {
    return static_cast<std::uint32_t>(racks_);
  }

  void IntraSitePath(NodeId src, NodeId dst, FlowId, SimTime now,
                     std::vector<LinkId>* path) const override {
    const NodeInfo& a = node_[src];
    const NodeInfo& b = node_[dst];
    if (a.rack == b.rack) return;  // intra-rack: electrical, NICs only
    const SiteFabric& sf = site_[a.site];
    const std::uint32_t partner = Partner(a.rack, Slice(now));
    path->push_back(sf.up[a.rack]);
    if (partner == b.rack) {
      path->push_back(sf.down[b.rack]);
      return;
    }
    // RotorLB two-hop: relay through the source's current match.
    path->push_back(sf.down[partner]);
    path->push_back(sf.up[partner]);
    path->push_back(sf.down[b.rack]);
  }

  // WAN bypasses the rotor (see file comment): no fabric links.
  void UplinkPath(NodeId, FlowId, std::vector<LinkId>*) const override {}
  void DownlinkPath(NodeId, FlowId, std::vector<LinkId>*) const override {}

  SimDuration SlicePeriod() const override {
    return racks_ > 1 ? slice_ : 0;
  }

  bool PathSliceDependent(NodeId src, NodeId dst) const override {
    return racks_ > 1 && node_[src].rack != node_[dst].rack;
  }

  void ScaleFabric(SiteId site, double factor, Fabric& fabric,
                   std::vector<LinkId>* touched) override {
    assert(site < site_.size());
    SiteFabric& sf = site_[site];
    for (int r = 0; r < racks_; ++r) {
      fabric.SetFabricLinkCapacity(sf.up[r], rate_ * factor);
      fabric.SetFabricLinkCapacity(sf.down[r], rate_ * factor);
      touched->push_back(sf.up[r]);
      touched->push_back(sf.down[r]);
    }
  }

 private:
  struct SiteFabric {
    std::vector<LinkId> up, down;  // one optical port pair per rack
    std::uint32_t arrivals = 0;
  };
  struct NodeInfo {
    SiteId site = kInvalidSite;
    std::uint32_t rack = 0;
  };

  std::uint32_t Slice(SimTime now) const {
    // R - 1 non-identity rotations, then the cycle repeats.
    return static_cast<std::uint32_t>(
        (now / slice_) % static_cast<SimTime>(racks_ - 1));
  }
  std::uint32_t Partner(std::uint32_t rack, std::uint32_t slice) const {
    return (rack + slice + 1) % static_cast<std::uint32_t>(racks_);
  }

  int racks_;
  SimDuration slice_;
  Rate rate_;
  std::vector<SiteFabric> site_;
  std::vector<NodeInfo> node_;  // NodeId-indexed
};

}  // namespace

std::unique_ptr<SiteTopology> MakeRotorTopology(Spec& spec) {
  return std::make_unique<RotorTopology>(spec);
}

}  // namespace hogsim::net::topo
