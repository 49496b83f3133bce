#include "src/net/flow_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

namespace hogsim::net {

namespace {
// Loopback "transfers" (same node) model a local handoff; they bypass NIC
// accounting at an in-memory copy rate.
constexpr Rate kLoopbackRate = 4.0 * 1024 * 1024 * 1024;
}  // namespace

FlowNetwork::FlowNetwork(sim::Simulation& sim, FlowNetworkConfig config)
    : sim_(sim),
      config_(std::move(config)),
      topo_(topo::CreateTopology(config_.topology)),
      topo_trivial_(topo_->trivial()),
      slice_period_(topo_->SlicePeriod()),
      completions_(sim_, [this](FlowId id) { FinishFlow(id, true); }) {
  if (!topo_trivial_) {
    ins_ = std::make_unique<TopoInstruments>(sim_.obs().metrics());
  }
}

LinkId FlowNetwork::AddLink(Rate capacity) {
  assert(capacity > 0);
  links_.push_back(Link{capacity, capacity, {}});
  return static_cast<LinkId>(links_.size() - 1);
}

void FlowNetwork::RefreshShare(Link& link) {
  link.share = link.capacity /
               static_cast<double>(std::max<std::size_t>(link.flows.size(), 1));
}

void FlowNetwork::AddToLink(LinkId link, FlowId id, Flow& flow) {
  std::vector<Member>& on = links_[link].flows;
  on.insert(std::ranges::upper_bound(on, id, {}, &Member::id),
            Member{id, &flow});
  RefreshShare(links_[link]);
}

void FlowNetwork::RemoveFromLink(LinkId link, FlowId id) {
  std::vector<Member>& on = links_[link].flows;
  const auto it = std::ranges::lower_bound(on, id, {}, &Member::id);
  assert(it != on.end() && it->id == id);
  on.erase(it);
  RefreshShare(links_[link]);
}

LinkId FlowNetwork::NewFabricLink(Rate capacity) {
  const LinkId id = AddLink(capacity);
  if (ins_) ins_->fabric_links.Add(1.0);
  return id;
}

void FlowNetwork::SetFabricLinkCapacity(LinkId link, Rate capacity) {
  assert(link < links_.size());
  assert(capacity > 0);
  links_[link].capacity = capacity;
  RefreshShare(links_[link]);
}

SiteId FlowNetwork::AddSite(Rate uplink) {
  sites_.push_back(Site{AddLink(uplink), AddLink(uplink)});
  const SiteId id = static_cast<SiteId>(sites_.size() - 1);
  if (!topo_trivial_) topo_->AddSite(id, *this);
  return id;
}

NodeId FlowNetwork::AddNode(SiteId site, Rate nic) {
  assert(site < sites_.size());
  nodes_.push_back(Node{site, AddLink(nic), AddLink(nic)});
  flows_by_node_.emplace_back();
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  if (!topo_trivial_) {
    // A growing rack resizes its fabric links (e.g. a ToR uplink tracks
    // sum(member NICs) / oversub); flows already crossing them re-share.
    std::vector<LinkId> resized;
    topo_->AddNode(site, id, nic, *this, &resized);
    if (!resized.empty()) Reallocate(resized);
  }
  return id;
}

SimDuration FlowNetwork::Latency(NodeId a, NodeId b) const {
  if (a == b) return 0;
  const SimDuration base = nodes_[a].site == nodes_[b].site
                               ? config_.lan_latency
                               : config_.wan_latency;
  return base + config_.crypto_latency;
}

FlowId FlowNetwork::StartFlow(NodeId src, NodeId dst, Bytes bytes,
                              FlowCallback done) {
  assert(src < nodes_.size() && dst < nodes_.size());
  const FlowId id = next_flow_++;
  // Built in place: its links and the calendar will hold its address.
  Flow& flow = flows_.try_emplace(id).first->second;
  flow.src = src;
  flow.dst = dst;
  flow.total = static_cast<double>(std::max<Bytes>(bytes, 0)) *
               (1.0 + std::max(0.0, config_.crypto_byte_overhead));
  flow.remaining = flow.total;
  flow.done = std::move(done);
  flows_by_node_[src].insert(id);
  if (dst != src) flows_by_node_[dst].insert(id);

  const SimDuration latency = Latency(src, dst);
  flow.activation =
      sim_.ScheduleAfter(latency, [this, id] { Activate(id); });
  return id;
}

void FlowNetwork::Activate(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  flow.active = true;
  flow.last_update = sim_.now();

  if (flow.src == flow.dst) {
    flow.rate = kLoopbackRate;
    RescheduleCompletion(id, flow);
    completions_.Arm();
    return;
  }

  const Node& s = nodes_[flow.src];
  const Node& d = nodes_[flow.dst];
  flow.path = {s.tx, d.rx};
  if (s.site != d.site) {
    flow.cross_site = true;
    if (!topo_trivial_) {
      // Cross-site flows pay the fabric on both ends (climb to the WAN
      // gateway, descend from it) in addition to the WAN uplinks.
      topo_->UplinkPath(flow.src, id, &flow.path);
      topo_->DownlinkPath(flow.dst, id, &flow.path);
    }
    flow.path.push_back(sites_[s.site].wan_tx);
    flow.path.push_back(sites_[d.site].wan_rx);
  } else if (!topo_trivial_) {
    topo_->IntraSitePath(flow.src, flow.dst, id, sim_.now(), &flow.path);
    if (slice_period_ > 0 && topo_->PathSliceDependent(flow.src, flow.dst)) {
      slice_flows_.insert(id);
      ArmSliceTimer();
    }
  }
  for (LinkId l : flow.path) AddToLink(l, id, flow);
  if (ins_) {
    ins_->ecmp_imbalance.Set(topo_->EcmpImbalance(
        [this](LinkId l) { return links_[l].flows.size(); }));
  }
  Reallocate(flow.path);
}

void FlowNetwork::AdvanceFlow(Flow& flow) {
  if (!flow.active) return;
  const SimTime now = sim_.now();
  if (now > flow.last_update && flow.rate > 0.0) {
    flow.remaining -= flow.rate * ToSeconds(now - flow.last_update);
    if (flow.remaining < 0.0) flow.remaining = 0.0;
  }
  flow.last_update = now;
}

bool FlowNetwork::FlowBlocked(const Flow& flow) const {
  if (!partitions_.empty() && FlowPartitioned(flow)) return true;
  if (topo_trivial_) return false;
  if (!dead_racks_.empty() && (dead_racks_.count(NodeRackKey(flow.src)) > 0 ||
                               dead_racks_.count(NodeRackKey(flow.dst)) > 0)) {
    return true;
  }
  if (!isolated_racks_.empty()) {
    // An isolated rack keeps its intra-rack traffic; anything crossing the
    // rack boundary (including to a *different* isolated rack) stalls.
    const std::uint64_t a = NodeRackKey(flow.src);
    const std::uint64_t b = NodeRackKey(flow.dst);
    if (a != b &&
        (isolated_racks_.count(a) > 0 || isolated_racks_.count(b) > 0)) {
      return true;
    }
  }
  return false;
}

template <typename ShareFn>
Rate FlowNetwork::MinShareRate(const Flow& flow, ShareFn share) const {
  if (FlowBlocked(flow)) return 0.0;
  Rate rate = kLoopbackRate;
  for (LinkId l : flow.path) rate = std::min(rate, share(links_[l]));
  if (flow.cross_site && config_.wan_flow_cap > 0.0) {
    rate = std::min(rate, config_.wan_flow_cap);
  }
  return rate;
}

Rate FlowNetwork::EvenShareRate(const Flow& flow) const {
  return MinShareRate(flow, [](const Link& link) { return link.share; });
}

void FlowNetwork::RescheduleCompletion(FlowId id, Flow& flow) {
  if (flow.rate <= 0.0) {  // starved; rescheduled on next change
    completions_.Erase(flow.due);
    return;
  }
  const auto remaining =
      static_cast<Bytes>(std::ceil(flow.remaining));
  const SimDuration eta = TransferTime(remaining, flow.rate);
  completions_.Set(flow.due, id, sim_.now() + eta);
}

void FlowNetwork::Reallocate(const std::vector<LinkId>& touched) {
  // Only flows crossing a touched link can change rate. Each link's list
  // is id-sorted, so merging them yields the affected flows in ascending
  // id: re-rates reserve same-tick order, and so fire same-tick
  // completions, in id order.
  std::vector<Member> affected;
  std::vector<Member> merged;
  for (LinkId l : touched) {
    const std::vector<Member>& on = links_[l].flows;
    merged.clear();
    std::ranges::set_union(affected, on, std::back_inserter(merged), {},
                           &Member::id, &Member::id);
    affected.swap(merged);
  }
  for (const Member& m : affected) {
    Flow& flow = *m.flow;
    const Rate rate = EvenShareRate(flow);
    // WAN-capped (or otherwise unmoved) flows keep their trajectory: the
    // linear extrapolation from last_update stays valid, so skipping the
    // advance + re-key is exact, and it turns hot-link churn from
    // O(flows-on-link) calendar operations into O(changed flows). An
    // unchanged zero rate has no deadline to keep and no progress to bank.
    if (rate == flow.rate) continue;
    AdvanceFlow(flow);
    flow.rate = rate;
    RescheduleCompletion(m.id, flow);
  }
  completions_.Arm();
}

std::vector<std::pair<FlowId, Rate>> FlowNetwork::EvenShareOracle() const {
  // Recounts every share rather than reading the cached one, so a setter
  // that forgets RefreshShare shows up as a mismatch.
  const auto share = [](const Link& link) {
    assert(!link.flows.empty());
    return link.capacity / static_cast<double>(link.flows.size());
  };
  std::vector<std::pair<FlowId, Rate>> out;
  for (const auto& [id, flow] : flows_) {
    if (!flow.path.empty()) out.emplace_back(id, MinShareRate(flow, share));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlowNetwork::RemoveFromLinks(Flow& flow, FlowId id) {
  for (LinkId l : flow.path) RemoveFromLink(l, id);
}

void FlowNetwork::FinishFlow(FlowId id, bool ok) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  sim_.Cancel(flow.activation);
  completions_.Erase(flow.due);
  AdvanceFlow(flow);
  // A successful completion delivers the whole payload: the scheduled
  // completion time already covers any sub-tick rounding remainder.
  if (ok) delivered_ += static_cast<Bytes>(std::llround(flow.total));
  const std::vector<LinkId> path = flow.path;
  RemoveFromLinks(flow, id);
  flows_by_node_[flow.src].erase(id);
  flows_by_node_[flow.dst].erase(id);
  if (slice_period_ > 0) slice_flows_.erase(id);
  FlowCallback done = std::move(flow.done);
  flows_.erase(it);
  Reallocate(path);
  if (done) done(ok);
}

void FlowNetwork::CancelFlow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  sim_.Cancel(flow.activation);
  completions_.Erase(flow.due);
  const std::vector<LinkId> path = flow.path;
  RemoveFromLinks(flow, id);
  flows_by_node_[flow.src].erase(id);
  flows_by_node_[flow.dst].erase(id);
  if (slice_period_ > 0) slice_flows_.erase(id);
  flows_.erase(it);
  Reallocate(path);
}

void FlowNetwork::FailFlowsAtNode(NodeId node) {
  if (node >= flows_by_node_.size() || flows_by_node_[node].empty()) return;
  std::vector<FlowId> ids(flows_by_node_[node].begin(),
                          flows_by_node_[node].end());
  std::sort(ids.begin(), ids.end());  // failure callbacks in id order
  for (FlowId id : ids) FinishFlow(id, false);
}

void FlowNetwork::SetSiteUplink(SiteId site, Rate uplink) {
  assert(site < sites_.size());
  assert(uplink > 0);
  for (LinkId l : {sites_[site].wan_tx, sites_[site].wan_rx}) {
    links_[l].capacity = uplink;
    RefreshShare(links_[l]);
  }
  // The WAN links are the only capacities that moved, so only the flows
  // crossing them are re-rated; everything else keeps its completion
  // deadline.
  Reallocate({sites_[site].wan_tx, sites_[site].wan_rx});
}

void FlowNetwork::SetSitePartition(SiteId a, SiteId b, bool severed) {
  assert(a < sites_.size() && b < sites_.size() && a != b);
  const std::uint64_t key = PartitionKey(a, b);
  const bool changed =
      severed ? partitions_.insert(key).second : partitions_.erase(key) > 0;
  if (!changed) return;
  // Every flow between the pair crosses both sites' WAN links regardless
  // of topology (fabric hops are additions to the path, never a
  // replacement for the uplinks), so touching those four links re-rates
  // every affected flow on sever AND on heal (severed flows starve via
  // FlowBlocked(); healed flows get completions back). Flows crossing
  // none of them — including fabric-only intra-site traffic — never lose
  // their completion deadlines.
  Reallocate({sites_[a].wan_tx, sites_[a].wan_rx, sites_[b].wan_tx,
              sites_[b].wan_rx});
}

bool FlowNetwork::SetRackFailed(SiteId site, std::uint32_t rack,
                                bool failed) {
  if (topo_trivial_ || rack >= topo_->RackCount(site)) return false;
  const std::uint64_t key = RackKey(site, rack);
  const bool changed =
      failed ? dead_racks_.insert(key).second : dead_racks_.erase(key) > 0;
  if (changed) ReallocateRack(site, rack, /*count_stalled=*/failed);
  return true;
}

bool FlowNetwork::SetRackIsolated(SiteId site, std::uint32_t rack,
                                  bool isolated) {
  if (topo_trivial_ || rack >= topo_->RackCount(site)) return false;
  const std::uint64_t key = RackKey(site, rack);
  const bool changed = isolated ? isolated_racks_.insert(key).second
                                : isolated_racks_.erase(key) > 0;
  if (changed) ReallocateRack(site, rack, /*count_stalled=*/isolated);
  return true;
}

void FlowNetwork::ReallocateRack(SiteId site, std::uint32_t rack,
                                 bool count_stalled) {
  // Touching the union of the rack's flows' paths re-rates exactly the
  // flows that can change — the same discipline as the site-partition
  // path.
  std::unordered_set<FlowId> seen;
  std::vector<LinkId> touched;
  std::uint64_t stalled = 0;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].site != site || topo_->RackOf(n) != rack) continue;
    for (FlowId f : flows_by_node_[n]) {
      if (!seen.insert(f).second) continue;
      const Flow& flow = flows_.at(f);
      if (flow.path.empty()) continue;  // latent or loopback
      touched.insert(touched.end(), flow.path.begin(), flow.path.end());
      if (count_stalled && flow.rate > 0.0 && FlowBlocked(flow)) ++stalled;
    }
  }
  if (ins_ && stalled > 0) ins_->fabric_stalled.Add(stalled);
  if (touched.empty()) return;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  Reallocate(touched);
}

bool FlowNetwork::SetFabricDegrade(SiteId site, double factor) {
  if (topo_trivial_) return false;  // star has no fabric
  assert(factor > 0);
  std::vector<LinkId> touched;
  topo_->ScaleFabric(site, factor, *this, &touched);
  if (!touched.empty()) Reallocate(touched);
  return true;
}

void FlowNetwork::ArmSliceTimer() {
  if (slice_timer_.pending()) return;
  const SimTime next =
      (sim_.now() / slice_period_ + 1) * slice_period_;
  slice_timer_ = sim_.ScheduleAt(next, [this] { OnSliceBoundary(); });
}

void FlowNetwork::OnSliceBoundary() {
  if (ins_) ins_->rotor_slices.Add();
  // Lazy: with no slice-dependent flows left the timer simply lapses; the
  // next slice-dependent activation re-arms it. An idle rotor network
  // schedules nothing, which keeps slice advance RNG- and event-neutral
  // for workloads that never cross racks.
  if (slice_flows_.empty()) return;
  std::vector<FlowId> ids(slice_flows_.begin(), slice_flows_.end());
  std::sort(ids.begin(), ids.end());  // deterministic re-route order
  std::vector<LinkId> touched;
  std::uint64_t repaths = 0;
  for (FlowId id : ids) {
    Flow& flow = flows_.at(id);
    std::vector<LinkId> fresh = {nodes_[flow.src].tx, nodes_[flow.dst].rx};
    topo_->IntraSitePath(flow.src, flow.dst, id, sim_.now(), &fresh);
    if (fresh == flow.path) continue;
    for (LinkId l : flow.path) {
      RemoveFromLink(l, id);
      touched.push_back(l);
    }
    flow.path = std::move(fresh);
    for (LinkId l : flow.path) {
      AddToLink(l, id, flow);
      touched.push_back(l);
    }
    ++repaths;
  }
  if (ins_ && repaths > 0) ins_->rotor_repaths.Add(repaths);
  if (!touched.empty()) {
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    Reallocate(touched);
  }
  ArmSliceTimer();
}

Rate FlowNetwork::FlowRate(FlowId id) const {
  auto it = flows_.find(id);
  return (it != flows_.end() && it->second.active) ? it->second.rate : 0.0;
}

std::optional<sim::Deadline> FlowNetwork::ScheduledCompletion(
    FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return std::nullopt;
  const sim::Deadline* due = completions_.Find(it->second.due);
  if (due == nullptr) return std::nullopt;
  return *due;
}

}  // namespace hogsim::net
