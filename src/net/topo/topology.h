// Pluggable intra-site topologies (ROADMAP item 5, after replicant-opera's
// flow_sim-fat_tree.h / flowsim_topo_rotor.cc and simgrid's routing zones).
//
// The base FlowNetwork models a two-level star: a flow meets its NIC, its
// peer's NIC, and (cross-site) both WAN uplinks. A SiteTopology expands
// each site into an internal fabric — extra capacity-constrained links the
// flow's path also crosses — so intra-site contention (rack
// oversubscription, a congested fat-tree core, a rotor matching) becomes
// visible to the same even-share machinery, and "rack" becomes a real
// failure/placement domain instead of an alias for "site".
//
// Four implementations:
//  * star     — the degenerate case: no fabric links, one rack per site.
//    Pinned byte-identical to the pre-topology network (FlowNetwork skips
//    every topology hook when trivial()).
//  * tor      — two-tier ToR/aggregation: round-robin racks of the site's
//    nodes, each rack's uplink/downlink carrying sum(member NICs)/oversub;
//    oversub=0 means a non-blocking core (fabric links never bind).
//  * fattree  — k-ary fat-tree (pods of k/2 edge + k/2 aggregation
//    switches, (k/2)^2 cores); path selection is deterministic ECMP by a
//    SplitMix64 hash of the flow id, so routing consumes no run RNG and is
//    reproducible across thread counts.
//  * rotor    — time-sliced optical rotor: in slice s rack r talks
//    directly to rack (r+s+1) mod R; other rack pairs relay through the
//    current match (RotorLB-style two-hop). The slice index is a pure
//    function of sim time — advancing consumes no run RNG.
//
// Topologies are deterministic by construction: rack assignment derives
// from node arrival order, fabric links are minted in a fixed order, and
// path vectors depend only on (src, dst, flow id, sim time).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/types.h"
#include "src/util/spec.h"
#include "src/util/units.h"

namespace hogsim::net::topo {

/// The surface FlowNetwork hands a topology for minting and resizing its
/// fabric links. Fabric links live in the same dense link arena as NICs
/// and WAN uplinks, so even-share re-rating treats them uniformly.
class Fabric {
 public:
  virtual ~Fabric() = default;
  virtual LinkId NewFabricLink(Rate capacity) = 0;
  virtual void SetFabricLinkCapacity(LinkId link, Rate capacity) = 0;
};

class SiteTopology {
 public:
  virtual ~SiteTopology() = default;

  virtual std::string_view name() const = 0;

  /// True when the topology adds no fabric links and no racks (star).
  /// FlowNetwork then skips every hook on the hot path, which is what
  /// pins star byte-identical to the pre-topology model.
  virtual bool trivial() const { return false; }

  /// True when any site can have more than one rack — gates the rack
  /// suffix in HDFS rack strings so single-rack topologies keep the
  /// site-only strings (and hence the placement byte-stream) unchanged.
  virtual bool multi_rack() const { return false; }

  /// Registers a site; the topology mints that site's fabric links here.
  virtual void AddSite(SiteId site, Fabric& fabric) = 0;

  /// Registers a node (rack assignment derives from per-site arrival
  /// order). Fabric links whose capacity changed as a result — e.g. a ToR
  /// uplink growing with its membership — are appended to `resized` so the
  /// caller can re-rate the flows crossing them.
  virtual void AddNode(SiteId site, NodeId node, Rate nic, Fabric& fabric,
                       std::vector<LinkId>* resized) = 0;

  /// Rack index of a node within its site (0-based; star is all rack 0).
  virtual std::uint32_t RackOf(NodeId node) const = 0;
  virtual std::uint32_t RackCount(SiteId site) const = 0;

  /// Appends the fabric links an intra-site flow crosses between the two
  /// NICs. `now` parameterizes time-sliced fabrics (rotor); static
  /// topologies ignore it.
  virtual void IntraSitePath(NodeId src, NodeId dst, FlowId flow,
                             SimTime now, std::vector<LinkId>* path) const = 0;

  /// Appends the fabric links between a node and its site's WAN egress
  /// (UplinkPath) or ingress (DownlinkPath): cross-site flows pay the
  /// fabric on both ends in addition to the WAN uplinks.
  virtual void UplinkPath(NodeId node, FlowId flow,
                          std::vector<LinkId>* path) const = 0;
  virtual void DownlinkPath(NodeId node, FlowId flow,
                            std::vector<LinkId>* path) const = 0;

  /// Matching period of a time-sliced fabric; 0 = static. FlowNetwork
  /// arms a lazy boundary timer only while slice-dependent flows exist.
  virtual SimDuration SlicePeriod() const { return 0; }

  /// True when this (src, dst) pair's intra-site path changes across
  /// slices and must be re-routed at boundaries.
  virtual bool PathSliceDependent(NodeId src, NodeId dst) const {
    (void)src;
    (void)dst;
    return false;
  }

  /// Scales every fabric link of `site` to factor x its nominal capacity
  /// (factor 1 restores; repeats do not compound). Touched links are
  /// appended to `touched`. The degrade-fabric fault action lands here.
  virtual void ScaleFabric(SiteId site, double factor, Fabric& fabric,
                           std::vector<LinkId>* touched) = 0;

  /// Max/mean active-flow load across the ECMP-spread core-facing links
  /// (`load` reads a link's current flow count); 0 when the topology has
  /// no ECMP stage. Feeds the net.topo.ecmp_imbalance gauge.
  virtual double EcmpImbalance(
      const std::function<std::size_t(LinkId)>& load) const {
    (void)load;
    return 0.0;
  }
};

/// Factory: `CreateTopology("tor:racks=4;oversub=4")`, in the one plug-in
/// spec grammar (src/util/spec.h). Throws std::invalid_argument on unknown
/// topology names or bad params.
std::unique_ptr<SiteTopology> CreateTopology(const std::string& spec);

/// Registered topology names, sorted (error messages, docs, --help).
std::vector<std::string> TopologyNames();

// ---- implementation helpers --------------------------------------------

/// Stateless SplitMix64 finalizer used for ECMP hashing: deterministic,
/// RNG-free, and well-mixed even for consecutive flow ids.
std::uint64_t HashFlowId(FlowId flow);

// Per-implementation factories (star lives in topology.cc). Each reads its
// keys from `spec`; CreateTopology finishes it.
std::unique_ptr<SiteTopology> MakeTorTopology(Spec& spec);
std::unique_ptr<SiteTopology> MakeFatTreeTopology(Spec& spec);
std::unique_ptr<SiteTopology> MakeRotorTopology(Spec& spec);

}  // namespace hogsim::net::topo
