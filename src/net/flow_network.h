// Flow-level network model.
//
// The simulator moves data as fluid "flows" over a pluggable topology that
// mirrors the paper's environment: every node has a NIC, every site has a
// WAN uplink shared by all its nodes, and the WAN core is unconstrained.
// A site's *internal* structure is delegated to a topo::SiteTopology
// (src/net/topo): the default `star` adds nothing — intra-site transfers
// traverse only the two NICs and inter-site transfers additionally
// traverse both sites' uplinks, exactly the asymmetry HOG's site awareness
// exploits (intra-site bandwidth >> WAN). The `tor`, `fattree`, and
// `rotor` topologies expand each site into a fabric of extra links that a
// flow's path also crosses, making intra-site contention (rack
// oversubscription, ECMP collisions, rotor matchings) visible to the same
// sharing machinery. Paths are arbitrary per-flow link vectors; the star
// case is pinned byte-identical to the pre-topology two-level model (the
// trivial topology skips every hook).
//
// Bandwidth sharing between concurrent flows is even-share: each link
// splits its capacity evenly among the flows crossing it, and a flow runs
// at the minimum share along its path. Slightly pessimistic (a flow
// bottlenecked elsewhere does not return its unused share) but local: a
// flow's rate depends only on the links of its own path and the fault
// state of its endpoints, so a flow add/remove, capacity change, or fault
// re-rates exactly the flows crossing the touched links. The incremental
// rates are bitwise equal to a from-scratch recomputation
// (EvenShareOracle(); the solver fuzz cross-checks every churn and fault
// op against it on star and on the multi-level tor/fattree/rotor graphs).
// Every flow's completion deadline sits in one sim::Calendar, under a slot
// the flow carries, so a re-rate moves deadlines in place without touching
// the event queue unless the network's earliest completion changes. A
// re-rate that leaves a flow's rate unchanged keeps its deadline, so
// traffic on untouched links is never disturbed. Each link carries its
// members (id and flow pointer) and its current even share, so a re-rate
// does no hash lookup and no division. Re-rates walk flows in ascending id
// and node failures sort their flow ids, so same-tick completions and
// failure callbacks run in id order, independent of hash-table layout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/net/topo/topology.h"
#include "src/net/types.h"
#include "src/obs/obs.h"
#include "src/sim/calendar.h"
#include "src/sim/simulation.h"
#include "src/util/units.h"

namespace hogsim::net {

struct FlowNetworkConfig {
  /// Intra-site topology spec, `NAME[:key=value;...]` — see src/net/topo.
  /// "star" is the degenerate pre-topology model (no fabric links).
  std::string topology = "star";
  SimDuration lan_latency = 200;          // 0.2 ms
  SimDuration wan_latency = 40 * kMillisecond;
  /// Per-flow ceiling on inter-site transfers: a single 2012-era TCP
  /// stream over a ~40 ms-RTT path is window-limited far below link rate.
  /// Applied on top of the even share; <= 0 disables the cap.
  Rate wan_flow_cap = Mbps(32.0);

  /// §VI security model (PKI-encrypted HTTP): per-message handshake and
  /// framing latency added to every non-loopback exchange, and a byte
  /// inflation + cipher cost factor applied to bulk transfers. Zero =
  /// plain HTTP (the paper's current version).
  SimDuration crypto_latency = 0;
  double crypto_byte_overhead = 0.0;
};

class FlowNetwork : private topo::Fabric {
 public:
  explicit FlowNetwork(sim::Simulation& sim, FlowNetworkConfig config = {});

  /// Adds a site with the given aggregate uplink capacity (applied
  /// independently to the outbound and inbound directions). The topology
  /// mints the site's fabric links here.
  SiteId AddSite(Rate uplink);

  /// Adds a node with the given NIC rate (again per direction). The
  /// topology assigns its rack from per-site arrival order.
  NodeId AddNode(SiteId site, Rate nic);

  SiteId site_of(NodeId node) const { return nodes_[node].site; }

  // ---- Topology / rack surface (src/net/topo) ----------------------------

  /// Rack index of a node within its site; 0 for every node under star.
  std::uint32_t RackOf(NodeId node) const { return topo_->RackOf(node); }
  std::uint32_t RackCount(SiteId site) const { return topo_->RackCount(site); }
  /// True when sites can have more than one rack (gates HDFS rack-string
  /// suffixes so single-rack topologies keep pre-topology strings).
  bool MultiRack() const { return !topo_trivial_ && topo_->multi_rack(); }

  /// One-way message latency between two nodes (LAN within a site, WAN
  /// across sites, zero to self). Control messages (heartbeats, RPCs) are
  /// modeled as pure latency since their payloads are negligible.
  SimDuration Latency(NodeId a, NodeId b) const;

  /// Completion callback: `ok` is false when the flow was failed (endpoint
  /// death) rather than finished.
  using FlowCallback = std::function<void(bool ok)>;

  /// Starts moving `bytes` from `src` to `dst`. Latency is paid up front,
  /// then the flow competes for bandwidth. A zero/negative byte count
  /// completes after latency alone. Loopback (src == dst) is free of NIC
  /// constraints and completes after a nominal memcpy delay.
  FlowId StartFlow(NodeId src, NodeId dst, Bytes bytes, FlowCallback done);

  /// Cancels a flow without invoking its callback. No-op on unknown ids.
  void CancelFlow(FlowId id);

  /// Fails every flow touching `node` (its callback fires with ok=false).
  /// Invoked by the grid layer when a node is preempted.
  void FailFlowsAtNode(NodeId node);

  /// Instantaneous rate of a flow in bytes/sec; 0 if unknown or latent.
  Rate FlowRate(FlowId id) const;

  /// The flow's pending completion deadline; nullopt while it is latent,
  /// stalled at rate zero, or unknown. A re-rate that leaves the flow's
  /// rate unchanged leaves this (time, seq) key unchanged.
  std::optional<sim::Deadline> ScheduledCompletion(FlowId id) const;

  std::size_t active_flows() const { return flows_.size(); }

  /// Total bytes fully delivered so far (conservation checks in tests).
  Bytes delivered_bytes() const { return delivered_; }

  // ---- Fault-injection hooks (src/fault/injector.h) ----------------------
  // All degrade in place: existing flows re-share immediately, nothing
  // costs the organic path more than an empty-set check.

  /// Rescales the site's WAN uplink (both directions) to `uplink`; active
  /// flows crossing it re-share at once. Capacity must stay > 0.
  void SetSiteUplink(SiteId site, Rate uplink);
  Rate SiteUplink(SiteId site) const {
    return links_[sites_[site].wan_tx].capacity;
  }

  /// Severs (or heals) the path between two sites: flows between them
  /// stall at rate zero until healed, while control-message Latency() is
  /// deliberately unaffected — HOG's HTTP control plane rides links the
  /// bulk-data model does not constrain.
  void SetSitePartition(SiteId a, SiteId b, bool severed);
  bool SitesPartitioned(SiteId a, SiteId b) const {
    return !partitions_.empty() && partitions_.count(PartitionKey(a, b)) > 0;
  }

  /// fail-tor: kills (or heals) a rack's fabric — every flow with an
  /// endpoint in the rack stalls at rate zero, including intra-rack flows
  /// (the dead ToR takes the rack's whole data path). Returns whether the
  /// rack exists (a repeat on an already-failed rack still does); a no-op
  /// returning false under star and for out-of-range rack indices.
  bool SetRackFailed(SiteId site, std::uint32_t rack, bool failed);

  /// partition-rack: isolates a rack from the rest of the fabric — flows
  /// crossing the rack boundary stall, intra-rack flows keep running.
  /// Returns whether the rack exists, as SetRackFailed does.
  bool SetRackIsolated(SiteId site, std::uint32_t rack, bool isolated);

  /// degrade-fabric: scales every fabric link of the site to factor x its
  /// nominal capacity (factor 1 restores; repeats never compound). Returns
  /// whether the site has a fabric: a no-op returning false under star.
  bool SetFabricDegrade(SiteId site, double factor);

  const FlowNetworkConfig& config() const { return config_; }

  /// Every flow's even-share rate recomputed from scratch (each link's
  /// capacity / member count, not its cached share), returned as
  /// (flow, rate) pairs sorted by flow id. Covers flows that are active on
  /// links; latent and loopback flows have no bandwidth allocation and are
  /// omitted. The differential tests compare this bitwise against the
  /// incrementally maintained rates after every churn and fault op.
  std::vector<std::pair<FlowId, Rate>> EvenShareOracle() const;

 private:
  struct Flow;

  struct Member {
    FlowId id;
    Flow* flow;  // stable: flows_ is node-based
  };

  struct Link {
    Rate capacity;
    Rate share;                 // capacity / flows.size(); see RefreshShare
    std::vector<Member> flows;  // ascending id
  };

  struct Node {
    SiteId site;
    LinkId tx;
    LinkId rx;
  };

  struct Site {
    LinkId wan_tx;
    LinkId wan_rx;
  };

  struct Flow {
    NodeId src;
    NodeId dst;
    bool cross_site = false;
    std::vector<LinkId> path;  // empty while latent or for loopback
    double total;              // bytes requested
    double remaining;          // bytes still to move
    Rate rate = 0.0;
    SimTime last_update = 0;
    bool active = false;  // false during the latency phase
    FlowCallback done;
    sim::EventHandle activation;  // pending during the latency phase
    sim::Calendar::Slot due;      // the completion deadline, once rated
  };

  // Observability handles for the non-trivial topologies, registered only
  // when one is configured so star runs' metric namespaces are untouched.
  struct TopoInstruments {
    explicit TopoInstruments(obs::MetricsRegistry& m)
        : fabric_links(m.GetGauge("net.topo.fabric_links")),
          fabric_stalled(m.GetCounter("net.topo.fabric_stalled_flows")),
          rotor_slices(m.GetCounter("net.topo.rotor_slices")),
          rotor_repaths(m.GetCounter("net.topo.rotor_repaths")),
          ecmp_imbalance(m.GetGauge("net.topo.ecmp_imbalance")) {}
    obs::Gauge& fabric_links;      // fabric links minted by the topology
    obs::Counter& fabric_stalled;  // flows stalled by fail-tor/partition-rack
    obs::Counter& rotor_slices;    // slice boundaries processed
    obs::Counter& rotor_repaths;   // flows re-routed at slice boundaries
    obs::Gauge& ecmp_imbalance;    // max/mean load over the ECMP core links
  };

  static std::uint64_t PartitionKey(SiteId a, SiteId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  static std::uint64_t RackKey(SiteId site, std::uint32_t rack) {
    return (static_cast<std::uint64_t>(site) << 32) | rack;
  }
  std::uint64_t NodeRackKey(NodeId node) const {
    return RackKey(nodes_[node].site, topo_->RackOf(node));
  }
  /// True when the flow crosses a severed site pair. Callers guard with
  /// `!partitions_.empty()` so the no-partition path stays free.
  bool FlowPartitioned(const Flow& flow) const {
    return flow.cross_site &&
           partitions_.count(
               PartitionKey(nodes_[flow.src].site, nodes_[flow.dst].site)) > 0;
  }
  /// Pinned-at-zero check covering site partitions and rack faults. Every
  /// clause is behind an emptiness guard, so the healthy path costs the
  /// same as the pre-topology partition check.
  bool FlowBlocked(const Flow& flow) const;

  // topo::Fabric (the surface handed to the topology for its links).
  LinkId NewFabricLink(Rate capacity) override;
  void SetFabricLinkCapacity(LinkId link, Rate capacity) override;

  LinkId AddLink(Rate capacity);
  void AddToLink(LinkId link, FlowId id, Flow& flow);
  void RemoveFromLink(LinkId link, FlowId id);
  /// Re-derives the link's even share after its capacity or membership
  /// changed (an empty link's share is its whole capacity).
  static void RefreshShare(Link& link);
  void Activate(FlowId id);
  void FinishFlow(FlowId id, bool ok);
  void RemoveFromLinks(Flow& flow, FlowId id);

  /// Brings `flow.remaining` up to date with the clock.
  void AdvanceFlow(Flow& flow);

  /// Recomputes rates and completion deadlines for the flows crossing the
  /// given links, in ascending flow id; flows whose rate is unchanged keep
  /// their deadline. Ends by re-arming the completion calendar, so every
  /// mutation that removes or re-rates a flow goes through here.
  void Reallocate(const std::vector<LinkId>& touched);

  /// Re-rates every flow with an endpoint in the rack (rack fault arm /
  /// heal) by touching the union of those flows' paths.
  void ReallocateRack(SiteId site, std::uint32_t rack, bool count_stalled);

  /// The minimum of `share(link)` along the flow's path, capped for WAN
  /// flows; 0 while the flow is blocked.
  template <typename ShareFn>
  Rate MinShareRate(const Flow& flow, ShareFn share) const;
  /// MinShareRate over the links' cached shares.
  Rate EvenShareRate(const Flow& flow) const;

  void RescheduleCompletion(FlowId id, Flow& flow);

  // Rotor slice machinery: the boundary timer is armed lazily, only while
  // slice-dependent flows exist, and re-routes exactly those flows.
  void ArmSliceTimer();
  void OnSliceBoundary();

  sim::Simulation& sim_;
  FlowNetworkConfig config_;
  std::unique_ptr<topo::SiteTopology> topo_;
  bool topo_trivial_;          // star: skip every topology hook
  SimDuration slice_period_;   // 0 for static fabrics
  std::unique_ptr<TopoInstruments> ins_;  // null under star
  std::vector<Link> links_;
  std::vector<Node> nodes_;
  std::vector<Site> sites_;
  std::unordered_map<FlowId, Flow> flows_;  // node-based: Member pointers
  sim::Calendar completions_;  // one deadline per flow moving bytes
  // NodeId-indexed (node ids are dense, assigned by AddNode): flat arena
  // lookup on the hot StartFlow/FailFlowsAtNode paths.
  std::vector<std::unordered_set<FlowId>> flows_by_node_;
  std::unordered_set<std::uint64_t> partitions_;  // severed site pairs
  std::unordered_set<std::uint64_t> dead_racks_;      // fail-tor
  std::unordered_set<std::uint64_t> isolated_racks_;  // partition-rack
  std::unordered_set<FlowId> slice_flows_;  // rotor slice-dependent flows
  sim::EventHandle slice_timer_;
  FlowId next_flow_ = 1;
  Bytes delivered_ = 0;
};

}  // namespace hogsim::net
