// k-ary fat-tree per site (after replicant-opera's flow_sim-fat_tree.h and
// the classic three-stage Clos): k pods of k/2 edge and k/2 aggregation
// switches, (k/2)^2 core switches, every cable at the same `gbps` rate.
// The fabric is rearrangeably non-blocking at full bisection, but path
// selection here is deterministic ECMP by a SplitMix64 hash of the flow
// id — hash collisions concentrate flows on a shared core link while
// others idle, which is exactly the imbalance the net.topo.ecmp_imbalance
// gauge reports. `nonblocking=1` lifts every fabric link to an
// unreachable capacity: paths are still threaded (every flow crosses the
// multi-level graph) but rates are byte-identical to star, which is the
// degeneracy golden the conformance tests pin.
//
//   fattree:k=4            16-host fat-tree fabric per site, 1 Gbps cables
//   fattree:k=8;gbps=10    128-host fabric, 10 Gbps cables
#include "src/net/topo/topology.h"

#include <cassert>

namespace hogsim::net::topo {

namespace {

constexpr Rate kNonBlocking = 1e15;

class FatTreeTopology final : public SiteTopology {
 public:
  explicit FatTreeTopology(Spec& spec) {
    k_ = spec.Int("k", 4, 2, 64);
    if (k_ % 2 != 0) spec.Fail({"k must be even"});
    const double gbps = spec.Number("gbps", 1.0, 1e-3, 1e6);
    nonblocking_ = spec.Int("nonblocking", 0, 0, 1) != 0;
    rate_ = nonblocking_ ? kNonBlocking : Gbps(gbps);
    half_ = static_cast<std::uint32_t>(k_) / 2;
  }

  std::string_view name() const override { return "fattree"; }
  bool multi_rack() const override { return true; }  // k >= 2: k^2/2 racks

  void AddSite(SiteId site, Fabric& fabric) override {
    assert(site == site_.size());
    (void)site;
    SiteFabric sf;
    // Edge<->aggregation cables, both directions, then aggregation<->core;
    // minted in a fixed order so link ids are a pure function of the
    // construction sequence.
    const std::size_t ea = static_cast<std::size_t>(k_) * half_ * half_;
    sf.ea_up.reserve(ea);
    sf.ea_down.reserve(ea);
    sf.ac_up.reserve(ea);
    sf.ac_down.reserve(ea);
    for (std::size_t i = 0; i < ea; ++i) {
      sf.ea_up.push_back(fabric.NewFabricLink(rate_));
      sf.ea_down.push_back(fabric.NewFabricLink(rate_));
    }
    for (std::size_t i = 0; i < ea; ++i) {
      sf.ac_up.push_back(fabric.NewFabricLink(rate_));
      sf.ac_down.push_back(fabric.NewFabricLink(rate_));
    }
    site_.push_back(std::move(sf));
  }

  void AddNode(SiteId site, NodeId node, Rate, Fabric&,
               std::vector<LinkId>*) override {
    assert(site < site_.size());
    SiteFabric& sf = site_[site];
    // Host port slot in arrival order; beyond k^3/4 hosts, ports are
    // shared (slots wrap) rather than the fabric growing.
    const std::uint32_t hosts = static_cast<std::uint32_t>(k_) * half_ * half_;
    const std::uint32_t slot = sf.arrivals++ % hosts;
    if (node_.size() <= node) node_.resize(node + 1);
    node_[node] = {site, slot / (half_ * half_),
                   (slot % (half_ * half_)) / half_};
  }

  std::uint32_t RackOf(NodeId node) const override {
    const NodeInfo& info = node_[node];
    return info.pod * half_ + info.edge;  // one rack per edge switch
  }
  std::uint32_t RackCount(SiteId) const override {
    return static_cast<std::uint32_t>(k_) * half_;
  }

  void IntraSitePath(NodeId src, NodeId dst, FlowId flow, SimTime,
                     std::vector<LinkId>* path) const override {
    const NodeInfo& a = node_[src];
    const NodeInfo& b = node_[dst];
    if (a.pod == b.pod && a.edge == b.edge) return;  // same edge switch
    const SiteFabric& sf = site_[a.site];
    const std::uint64_t h = HashFlowId(flow);
    const std::uint32_t agg = static_cast<std::uint32_t>(h % half_);
    if (a.pod == b.pod) {
      path->push_back(sf.ea_up[EaIndex(a.pod, a.edge, agg)]);
      path->push_back(sf.ea_down[EaIndex(b.pod, b.edge, agg)]);
      return;
    }
    // Core (agg, j) attaches to aggregation switch `agg` of every pod, so
    // the down path re-enters through the same agg index.
    const std::uint32_t j = static_cast<std::uint32_t>((h >> 16) % half_);
    path->push_back(sf.ea_up[EaIndex(a.pod, a.edge, agg)]);
    path->push_back(sf.ac_up[AcIndex(a.pod, agg, j)]);
    path->push_back(sf.ac_down[AcIndex(b.pod, agg, j)]);
    path->push_back(sf.ea_down[EaIndex(b.pod, b.edge, agg)]);
  }

  // The WAN gateway hangs off the core layer: cross-site flows climb the
  // full fabric on the way out and descend it on the way in.
  void UplinkPath(NodeId node, FlowId flow,
                  std::vector<LinkId>* path) const override {
    const NodeInfo& info = node_[node];
    const SiteFabric& sf = site_[info.site];
    const std::uint64_t h = HashFlowId(flow);
    const std::uint32_t agg = static_cast<std::uint32_t>(h % half_);
    const std::uint32_t j = static_cast<std::uint32_t>((h >> 16) % half_);
    path->push_back(sf.ea_up[EaIndex(info.pod, info.edge, agg)]);
    path->push_back(sf.ac_up[AcIndex(info.pod, agg, j)]);
  }
  void DownlinkPath(NodeId node, FlowId flow,
                    std::vector<LinkId>* path) const override {
    const NodeInfo& info = node_[node];
    const SiteFabric& sf = site_[info.site];
    const std::uint64_t h = HashFlowId(flow);
    const std::uint32_t agg = static_cast<std::uint32_t>(h % half_);
    const std::uint32_t j = static_cast<std::uint32_t>((h >> 16) % half_);
    path->push_back(sf.ac_down[AcIndex(info.pod, agg, j)]);
    path->push_back(sf.ea_down[EaIndex(info.pod, info.edge, agg)]);
  }

  void ScaleFabric(SiteId site, double factor, Fabric& fabric,
                   std::vector<LinkId>* touched) override {
    assert(site < site_.size());
    SiteFabric& sf = site_[site];
    for (const auto* group : {&sf.ea_up, &sf.ea_down, &sf.ac_up, &sf.ac_down}) {
      for (LinkId l : *group) {
        fabric.SetFabricLinkCapacity(l, rate_ * factor);
        touched->push_back(l);
      }
    }
  }

  double EcmpImbalance(
      const std::function<std::size_t(LinkId)>& load) const override {
    // Max/mean active-flow load over the core-facing uplinks (the ECMP
    // choice space). 0 until any flow crosses the core; 1.0 = perfectly
    // balanced.
    std::size_t total = 0, max_load = 0, links = 0;
    for (const SiteFabric& sf : site_) {
      for (LinkId l : sf.ac_up) {
        const std::size_t n = load(l);
        total += n;
        if (n > max_load) max_load = n;
        ++links;
      }
    }
    if (total == 0 || links == 0) return 0.0;
    const double mean = static_cast<double>(total) / static_cast<double>(links);
    return static_cast<double>(max_load) / mean;
  }

 private:
  struct SiteFabric {
    std::vector<LinkId> ea_up, ea_down;  // [pod][edge][agg]
    std::vector<LinkId> ac_up, ac_down;  // [pod][agg][core-port j]
    std::uint32_t arrivals = 0;
  };
  struct NodeInfo {
    SiteId site = kInvalidSite;
    std::uint32_t pod = 0;
    std::uint32_t edge = 0;
  };

  std::size_t EaIndex(std::uint32_t pod, std::uint32_t edge,
                      std::uint32_t agg) const {
    return (static_cast<std::size_t>(pod) * half_ + edge) * half_ + agg;
  }
  std::size_t AcIndex(std::uint32_t pod, std::uint32_t agg,
                      std::uint32_t j) const {
    return (static_cast<std::size_t>(pod) * half_ + agg) * half_ + j;
  }

  int k_;
  std::uint32_t half_;  // k/2
  bool nonblocking_;
  Rate rate_;
  std::vector<SiteFabric> site_;
  std::vector<NodeInfo> node_;  // NodeId-indexed
};

}  // namespace

std::unique_ptr<SiteTopology> MakeFatTreeTopology(Spec& spec) {
  return std::make_unique<FatTreeTopology>(spec);
}

}  // namespace hogsim::net::topo
