// The star (degenerate) topology and the factory. The non-trivial fabrics
// live in tor.cc, fattree.cc, and rotor.cc.
#include "src/net/topo/topology.h"

namespace hogsim::net::topo {

std::uint64_t HashFlowId(FlowId flow) {
  // SplitMix64 finalizer (stateless): spreads consecutive flow ids across
  // the ECMP choice space without touching any run RNG.
  std::uint64_t x = flow + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

// The pre-topology model: no fabric links, every site is one rack.
// trivial() makes FlowNetwork skip the topology hooks entirely, so star
// is byte-identical to the two-level network by construction.
class StarTopology final : public SiteTopology {
 public:
  std::string_view name() const override { return "star"; }
  bool trivial() const override { return true; }
  void AddSite(SiteId, Fabric&) override {}
  void AddNode(SiteId, NodeId, Rate, Fabric&,
               std::vector<LinkId>*) override {}
  std::uint32_t RackOf(NodeId) const override { return 0; }
  std::uint32_t RackCount(SiteId) const override { return 1; }
  void IntraSitePath(NodeId, NodeId, FlowId, SimTime,
                     std::vector<LinkId>*) const override {}
  void UplinkPath(NodeId, FlowId, std::vector<LinkId>*) const override {}
  void DownlinkPath(NodeId, FlowId, std::vector<LinkId>*) const override {}
  void ScaleFabric(SiteId, double, Fabric&,
                   std::vector<LinkId>*) override {}
};

}  // namespace

std::unique_ptr<SiteTopology> CreateTopology(const std::string& text) {
  Spec spec(text);
  std::unique_ptr<SiteTopology> topology;
  if (spec.name() == "star") {
    topology = std::make_unique<StarTopology>();
  } else if (spec.name() == "tor") {
    topology = MakeTorTopology(spec);
  } else if (spec.name() == "fattree") {
    topology = MakeFatTreeTopology(spec);
  } else if (spec.name() == "rotor") {
    topology = MakeRotorTopology(spec);
  } else {
    spec.FailUnknownName("topology", TopologyNames());
  }
  spec.Finish();
  return topology;
}

std::vector<std::string> TopologyNames() {
  return {"star", "tor", "fattree", "rotor"};
}

}  // namespace hogsim::net::topo
