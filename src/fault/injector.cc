#include "src/fault/injector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "src/grid/grid.h"
#include "src/hdfs/namenode.h"
#include "src/mapreduce/jobtracker.h"
#include "src/net/flow_network.h"
#include "src/util/log.h"

namespace hogsim::fault {

namespace {

/// `fault.<directive, '-' as '_'>.injected`.
std::string CounterName(ActionKind kind) {
  std::string name = "fault." + std::string(ActionName(kind)) + ".injected";
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// True when `site` names a grid site (not kAllSites).
bool HasSite(const grid::Grid& grid, int site) {
  return site >= 0 && static_cast<std::size_t>(site) < grid.site_count();
}

/// Resolves a site selector against the grid; false = out of range.
template <typename Fn>
bool ForEachSite(const grid::Grid& grid, int site, Fn&& fn) {
  if (site == kAllSites) {
    for (std::size_t i = 0; i < grid.site_count(); ++i) fn(i);
    return true;
  }
  if (!HasSite(grid, site)) return false;
  fn(static_cast<std::size_t>(site));
  return true;
}

/// The site's leases whose processes are alive (running or zombie), in id
/// order.
std::vector<grid::GridNode*> LiveNodes(grid::Grid& grid, std::size_t site) {
  std::vector<grid::GridNode*> out;
  for (grid::GridNodeId id = 0; id < grid.total_leases(); ++id) {
    grid::GridNode* node = grid.node(id);
    if (node->site_index() == site && node->processes_alive()) {
      out.push_back(node);
    }
  }
  return out;
}

// What a skipped action lacked, for the log line.
constexpr const char* kNoGrid = "no grid layer";
constexpr const char* kNoNet = "no network layer";
constexpr const char* kNoDaemons = "no daemon layer on the grid";

std::string OutOfRange(int site) {
  return "site " + std::to_string(site) + " out of range";
}

/// " at site N", or " at any site" for kAllSites.
std::string AtSite(int site) {
  return site == kAllSites ? " at any site"
                           : " at site " + std::to_string(site);
}

/// `bytes` scaled by `factor`, rounded to the nearest byte.
Bytes Scaled(Bytes bytes, double factor) {
  return static_cast<Bytes>(
      std::llround(static_cast<double>(bytes) * factor));
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulation& sim, InjectorTargets targets,
                             Scenario scenario)
    : sim_(sim),
      targets_(targets),
      scenario_(std::move(scenario)),
      total_counter_(
          sim.obs().metrics().GetCounter("fault.actions.injected")) {
  kind_counters_.reserve(kActionKinds);
  for (std::size_t kind = 0; kind < kActionKinds; ++kind) {
    kind_counters_.push_back(&sim.obs().metrics().GetCounter(
        CounterName(static_cast<ActionKind>(kind))));
  }
}

void FaultInjector::Arm() {
  assert(!armed_);
  armed_ = true;
  origin_ = sim_.now();
  events_.assign(scenario_.actions.size(), {});
  for (std::size_t i = 0; i < scenario_.actions.size(); ++i) {
    Schedule(i, scenario_.actions[i].at);
  }
  HOG_LOG(kInfo, sim_.now(), "fault")
      << "armed scenario " << scenario_.name << " ("
      << scenario_.actions.size() << " actions)";
}

void FaultInjector::Disarm() {
  for (sim::EventHandle& e : events_) sim_.Cancel(e);
  for (sim::EventHandle& e : restore_events_) sim_.Cancel(e);
  events_.clear();
  restore_events_.clear();
  armed_ = false;
}

void FaultInjector::Schedule(std::size_t index, SimTime rel) {
  events_[index] = sim_.ScheduleAt(origin_ + rel,
                                   [this, index, rel] { Fire(index, rel); });
}

void FaultInjector::Fire(std::size_t index, SimTime rel) {
  const TimedAction& timed = scenario_.actions[index];
  Apply(timed.action);
  if (timed.period > 0) {
    const SimTime next = rel + timed.period;
    if (timed.until == 0 || next <= timed.until) Schedule(index, next);
  }
}

void FaultInjector::Restore(SimDuration after, const char* instant,
                            std::uint64_t arg, sim::Simulation::Callback undo) {
  if (after <= 0) return;  // a permanent fault
  restore_events_.push_back(sim_.ScheduleAfter(
      after, [this, instant, arg, undo = std::move(undo)] {
        undo();
        if (instant != nullptr) {
          sim_.obs().tracer().EmitInstant("fault", instant, sim_.now(), arg);
        }
      }));
}

void FaultInjector::Apply(const Action& action) {
  grid::Grid* const g = targets_.grid;
  net::FlowNetwork* const net = targets_.net;
  // Targets are resolved here, at fire time. Each case leaves `missing`
  // empty when the action landed, or names the target it could not reach.
  std::string missing;

  // Runs `fn` on every grid site the action names.
  const auto sites = [&](auto&& fn) -> std::string {
    if (g == nullptr) return kNoGrid;
    if (!ForEachSite(*g, action.site, fn)) return OutOfRange(action.site);
    return {};
  };
  const auto net_sites = [&](auto&& fn) -> std::string {
    return net == nullptr ? kNoNet : sites(fn);
  };
  // kFailTor / kPartitionRack: `set` the rack at every named site that
  // has it. Only multi-rack net topologies have racks.
  const auto racks = [&](auto set, const char* heal) -> std::string {
    const auto rack = static_cast<std::uint32_t>(action.rack);
    bool hit = false;
    std::string lacked = net_sites([&](std::size_t s) {
      const net::SiteId ns = g->net_site(s);
      if (!(net->*set)(ns, rack, true)) return;
      hit = true;
      Restore(action.duration, heal, ns, [this, set, ns, rack] {
        (void)(targets_.net->*set)(ns, rack, false);
      });
    });
    if (lacked.empty() && !hit) {
      lacked = "no rack " + std::to_string(action.rack) + AtSite(action.site);
    }
    return lacked;
  };
  // kSlowSite / kDelayHeartbeats: `set` every running lease at the named
  // sites to `on`, in id order. The restore resets exactly the leases hit,
  // even after churn has replaced the sites' membership.
  const auto site_leases = [&](auto set, auto on, auto off,
                               const char* restored) -> std::string {
    std::vector<grid::GridNodeId> running;
    std::string lacked = sites([&](std::size_t s) {
      for (const grid::GridNode* node : LiveNodes(*g, s)) {
        if (node->running()) running.push_back(node->id());
      }
    });
    if (!lacked.empty()) return lacked;
    if (running.empty()) return "no running lease" + AtSite(action.site);
    std::vector<grid::GridNodeId> hit;
    for (const grid::GridNodeId id : running) {
      if ((g->*set)(id, on)) hit.push_back(id);
    }
    if (hit.empty()) return kNoDaemons;
    Restore(action.duration, restored, hit.size(), [this, set, off, hit] {
      for (const grid::GridNodeId id : hit) {
        (void)(targets_.grid->*set)(id, off);
      }
    });
    return {};
  };
  // kSlowNode / kStallDisk: the NODE-th running lease in id order, modulo
  // the running count. Deterministic, and draws no RNG.
  grid::GridNodeId lease = grid::kInvalidGridNode;
  const auto nth_lease = [&]() -> std::string {
    if (g == nullptr) return kNoGrid;
    const std::vector<grid::GridNodeId> running = g->RunningNodeIds();
    if (running.empty()) return "no running lease";
    lease = running[static_cast<std::size_t>(action.node) % running.size()];
    return {};
  };

  const auto count = static_cast<int>(action.value);
  switch (action.kind) {
    case ActionKind::kPreemptNodes:
      missing = sites([&](std::size_t s) { g->PreemptNodes(s, count); });
      break;
    case ActionKind::kPreemptSite:
      missing = sites(
          [&](std::size_t s) { g->PreemptSiteFraction(s, action.value); });
      break;
    case ActionKind::kZombify:
      missing = sites([&](std::size_t s) {
        g->PreemptNodes(s, count, grid::ZombieMode::kAlways);
      });
      break;
    case ActionKind::kFreezeAcquisition:
      missing = sites(
          [&](std::size_t s) { g->FreezeAcquisition(s, action.duration); });
      break;
    case ActionKind::kThrottleAcquisition:
      missing = sites([&](std::size_t s) {
        g->SetAcquisitionDelayFactor(s, action.value);
      });
      break;
    case ActionKind::kDegradeUplink:
      // Relative to the site's configured uplink, so repeats do not
      // compound and the restore returns to the nominal rate.
      missing = net_sites([&](std::size_t s) {
        const net::SiteId ns = g->net_site(s);
        const Rate nominal = g->site_config(s).uplink;
        net->SetSiteUplink(ns, nominal * action.value);
        Restore(action.duration, "uplink.restore", ns, [this, ns, nominal] {
          targets_.net->SetSiteUplink(ns, nominal);
        });
      });
      break;
    case ActionKind::kPartition: {
      missing = net_sites([](std::size_t) {});
      for (const int site : {action.site, action.site_b}) {
        if (missing.empty() && !HasSite(*g, site)) missing = OutOfRange(site);
      }
      if (!missing.empty()) break;
      const net::SiteId a = g->net_site(static_cast<std::size_t>(action.site));
      const net::SiteId b =
          g->net_site(static_cast<std::size_t>(action.site_b));
      net->SetSitePartition(a, b, true);
      Restore(action.duration, "partition.heal", a,
              [this, a, b] { targets_.net->SetSitePartition(a, b, false); });
      break;
    }
    case ActionKind::kShrinkDisks:
      missing = sites([&](std::size_t s) {
        for (grid::GridNode* node : LiveNodes(*g, s)) {
          storage::Disk& disk = node->disk();
          disk.SetCapacity(Scaled(disk.capacity(), action.value));
        }
      });
      break;
    case ActionKind::kFillDisks:
      // Up to `value` of each disk's capacity, as if the host's own
      // workload ate the scratch space.
      missing = sites([&](std::size_t s) {
        for (grid::GridNode* node : LiveNodes(*g, s)) {
          storage::Disk& disk = node->disk();
          const Bytes want = Scaled(disk.capacity(), action.value);
          if (want > disk.used()) (void)disk.Reserve(want - disk.used());
        }
      });
      break;
    case ActionKind::kNamenodeBlackout:
      if (targets_.namenode == nullptr) {
        missing = "no namenode";
        break;
      }
      targets_.namenode->Crash();
      Restore(action.duration, nullptr, 0,
              [this] { targets_.namenode->Restart(); });
      break;
    case ActionKind::kJobtrackerBlackout:
      if (targets_.jobtracker == nullptr) {
        missing = "no jobtracker";
        break;
      }
      targets_.jobtracker->Crash();
      Restore(action.duration, nullptr, 0,
              [this] { targets_.jobtracker->Restart(); });
      break;
    case ActionKind::kFailTor:
      missing = racks(&net::FlowNetwork::SetRackFailed, "tor.heal");
      break;
    case ActionKind::kPartitionRack:
      missing = racks(&net::FlowNetwork::SetRackIsolated, "rack.heal");
      break;
    case ActionKind::kDegradeFabric: {
      // Against the topology's nominal link rates, so repeats do not
      // compound and factor 1 fully restores.
      bool hit = false;
      missing = net_sites([&](std::size_t s) {
        const net::SiteId ns = g->net_site(s);
        if (!net->SetFabricDegrade(ns, action.value)) return;
        hit = true;
        Restore(action.duration, "fabric.restore", ns, [this, ns] {
          (void)targets_.net->SetFabricDegrade(ns, 1.0);
        });
      });
      if (missing.empty() && !hit) missing = "no fabric" + AtSite(action.site);
      break;
    }
    case ActionKind::kSlowNode:
      missing = nth_lease();
      if (!missing.empty()) break;
      if (!g->SetNodeComputeScale(lease, action.value)) {
        missing = kNoDaemons;
        break;
      }
      Restore(action.duration, "slow_node.restore", lease, [this, lease] {
        (void)targets_.grid->SetNodeComputeScale(lease, 1.0);
      });
      break;
    case ActionKind::kSlowSite:
      missing = site_leases(&grid::Grid::SetNodeComputeScale, action.value,
                            1.0, "slow_site.restore");
      break;
    case ActionKind::kDelayHeartbeats:
      missing = site_leases(&grid::Grid::SetNodeHeartbeatJitter,
                            action.jitter, SimDuration{0},
                            "delay_heartbeats.restore");
      break;
    case ActionKind::kStallDisk:
      // A running lease's disk always stalls, and thaws by itself once the
      // stall elapses: no restore.
      missing = nth_lease();
      if (missing.empty()) (void)g->StallNodeDisk(lease, action.duration);
      break;
  }
  if (!missing.empty()) {
    ++skipped_;
    HOG_LOG(kWarn, sim_.now(), "fault")
        << "skipped " << ActionName(action.kind) << " (" << missing << ")";
    return;
  }
  total_counter_.Add();
  kind_counters_[static_cast<std::size_t>(action.kind)]->Add();
  sim_.obs().tracer().EmitInstant(
      "fault", ActionName(action.kind).data(), sim_.now(),
      action.site >= 0 ? static_cast<std::uint64_t>(action.site) : 0);
  HOG_LOG(kInfo, sim_.now(), "fault") << "injected "
                                      << ActionName(action.kind);
}

}  // namespace hogsim::fault
