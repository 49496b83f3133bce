// Differential and isolation tests for the incremental even-share model.
//
// The model's contract (src/net/flow_network.h) has three load-bearing
// claims, each pinned here:
//  1. Incremental rates are byte-identical to a from-scratch recompute
//     after every op that can re-rate a flow — flow add / cancel /
//     completion (loopback and zero-byte included), uplink change, site
//     partition sever and heal, fail-tor, partition-rack (out-of-range
//     racks included), degrade-fabric, endpoint failure, node arrival, and
//     rotor slice advance — fuzzed against EvenShareOracle() for two
//     thousand seeded ops on star, tor, fattree, and rotor, with the WAN
//     cap on and off.
//  2. Churn on disjoint links never disturbs other flows: their rates AND
//     their scheduled completion timestamps are exactly those of a
//     churn-free twin run.
//  3. A re-rate that leaves a flow's rate unchanged must not reschedule
//     its completion: the flow keeps the same (time, seq) deadline key
//     (asserted through FlowNetwork::ScheduledCompletion).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/flow_network.h"
#include "src/util/rng.h"

namespace hogsim::net {
using hogsim::Rng;
namespace {

FlowNetworkConfig NoCap() {
  FlowNetworkConfig config;
  config.wan_flow_cap = 0;
  return config;
}

/// 2000 random churn and fault ops on a 4-site network under `topology`,
/// cross-checking every live flow's incrementally maintained rate
/// bit-for-bit against EvenShareOracle() after every op and again after
/// time advances (latent flows activate, completions fire, rotor slices
/// rotate).
void FuzzAgainstOracle(const std::string& topology, Rate wan_flow_cap,
                       std::uint64_t seed) {
  sim::Simulation sim;
  FlowNetworkConfig config;
  config.topology = topology;
  config.wan_flow_cap = wan_flow_cap;
  FlowNetwork net(sim, config);

  constexpr int kSites = 4;
  constexpr int kNodesPerSite = 5;
  constexpr std::size_t kMaxNodes = 32;
  const auto nic = [](std::int64_t n) { return Mbps(18.0 + 11.0 * n); };
  std::vector<NodeId> nodes;
  for (int s = 0; s < kSites; ++s) {
    const SiteId site = net.AddSite(Mbps(60.0 + 35.0 * s));
    for (int n = 0; n < kNodesPerSite; ++n) {
      nodes.push_back(net.AddNode(site, nic(n)));
    }
  }

  Rng rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  std::set<FlowId> live;
  std::set<FlowId> loopback;  // no link allocation: absent from the oracle

  const auto check = [&](int op, const char* when) {
    const auto oracle = net.EvenShareOracle();
    for (const auto& [id, rate] : oracle) {
      ASSERT_TRUE(live.count(id) > 0 && loopback.count(id) == 0)
          << topology << " op " << op << " (" << when
          << "): oracle covers flow " << id << " that holds no allocation";
    }
    const std::unordered_map<FlowId, Rate> expected(oracle.begin(),
                                                    oracle.end());
    for (FlowId id : live) {
      if (loopback.count(id) > 0) continue;
      const auto it = expected.find(id);
      // Flows absent from the oracle are still latent: their incremental
      // rate must be exactly zero.
      const Rate want = it == expected.end() ? 0.0 : it->second;
      ASSERT_EQ(net.FlowRate(id), want)
          << topology << " op " << op << " (" << when << "): flow " << id
          << " diverged from the from-scratch rate";
    }
  };

  for (int op = 0; op < 2000; ++op) {
    const std::int64_t kind = rng.UniformInt(0, 99);
    const auto site = static_cast<SiteId>(pick(kSites));
    if (kind < 45 || live.empty()) {
      // Add: endpoints anywhere (intra-rack, cross-rack, cross-site), with
      // the odd loopback and zero-byte transfer.
      const std::size_t si = pick(nodes.size());
      std::size_t di = pick(nodes.size());
      const std::int64_t shape = rng.UniformInt(0, 19);
      if (shape == 0) {
        di = si;
      } else if (di == si) {
        di = (si + 1) % nodes.size();
      }
      const Bytes bytes =
          shape == 1 ? 0 : rng.UniformInt(64 * kKiB, 8 * kMiB);
      auto slot = std::make_shared<FlowId>(kInvalidFlow);
      const FlowId id = net.StartFlow(
          nodes[si], nodes[di], bytes, [&live, &loopback, slot](bool) {
            live.erase(*slot);
            loopback.erase(*slot);
          });
      *slot = id;
      live.insert(id);
      if (si == di) loopback.insert(id);
    } else if (kind < 65) {
      // Cancel a random live flow (its callback is not invoked).
      auto it = live.begin();
      std::advance(it, pick(live.size()));
      const FlowId id = *it;
      live.erase(it);
      loopback.erase(id);
      net.CancelFlow(id);
    } else if (kind < 72) {
      net.SetSiteUplink(site, Mbps(rng.Uniform(10.0, 250.0)));
    } else if (kind < 78) {
      const auto other =
          static_cast<SiteId>((site + 1 + pick(kSites - 1)) % kSites);
      net.SetSitePartition(site, other, !net.SitesPartitioned(site, other));
    } else if (kind < 90) {
      // Rack faults arm a third of the time and heal otherwise; rack ==
      // RackCount is out of range and must be a no-op (as is every rack
      // fault under star).
      const auto rack =
          static_cast<std::uint32_t>(pick(net.RackCount(site) + 1));
      const bool arm = rng.UniformInt(0, 2) == 0;
      if (kind < 84) {
        net.SetRackFailed(site, rack, arm);
      } else {
        net.SetRackIsolated(site, rack, arm);
      }
    } else if (kind < 94) {
      net.SetFabricDegrade(site, rng.UniformInt(0, 3) == 0
                                     ? 1.0
                                     : rng.Uniform(0.2, 1.0));
    } else if (kind < 97) {
      net.FailFlowsAtNode(nodes[pick(nodes.size())]);
    } else if (nodes.size() < kMaxNodes) {
      // A late arrival grows its rack, which resizes oversubscribed
      // fabric links under busy flows.
      nodes.push_back(net.AddNode(site, nic(static_cast<std::int64_t>(
                                            pick(kNodesPerSite)))));
    }
    check(op, "after op");
    sim.RunUntil(sim.now() + rng.UniformInt(1, 60) * kMillisecond);
    check(op, "after time step");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(net.delivered_bytes(), 0) << topology;
}

TEST(NetSolver, FuzzMatchesOracleUncapped) {
  FuzzAgainstOracle("star", /*wan_flow_cap=*/0, /*seed=*/0x5ca1e001);
}

TEST(NetSolver, FuzzMatchesOracleWithWanCap) {
  FuzzAgainstOracle("star", Mbps(32.0), /*seed=*/0x5ca1e002);
}

// The same fuzz on multi-level fabrics tight enough to genuinely bind, so
// fabric links, rack faults, and fabric degrades all move rates.

TEST(TopoSolver, FuzzMatchesOracleOnTor) {
  FuzzAgainstOracle("tor:racks=3;oversub=2", Mbps(32.0), 0x70705001);
  FuzzAgainstOracle("tor:racks=3;oversub=2", 0, 0x70705011);
}

TEST(TopoSolver, FuzzMatchesOracleOnFatTree) {
  // 20 Mbps cables sit below most NICs: the core genuinely binds and ECMP
  // collisions create shared fabric bottlenecks.
  FuzzAgainstOracle("fattree:k=4;gbps=0.02", Mbps(32.0), 0x70705002);
  FuzzAgainstOracle("fattree:k=4;gbps=0.02", 0, 0x70705012);
}

TEST(TopoSolver, FuzzMatchesOracleOnRotor) {
  // 25 ms slices rotate within the 1-60 ms advances between ops, so the
  // oracle is exercised across re-routed slice-dependent paths too.
  FuzzAgainstOracle("rotor:racks=4;slice_ms=25;gbps=0.025", Mbps(32.0),
                    0x70705003);
  FuzzAgainstOracle("rotor:racks=4;slice_ms=25;gbps=0.025", 0, 0x70705013);
}

/// One quiet "victim" transfer inside site A, with (or without) heavy
/// add/cancel/uplink churn strictly inside site B. Returns the victim's
/// completion timestamp.
SimTime VictimCompletion(bool churn) {
  sim::Simulation sim;
  FlowNetwork net(sim, NoCap());
  const SiteId sa = net.AddSite(Mbps(100));
  const SiteId sb = net.AddSite(Mbps(100));
  const NodeId a1 = net.AddNode(sa, Mbps(40));
  const NodeId a2 = net.AddNode(sa, Mbps(40));
  const NodeId b1 = net.AddNode(sb, Mbps(40));
  const NodeId b2 = net.AddNode(sb, Mbps(40));
  const NodeId b3 = net.AddNode(sb, Mbps(40));

  SimTime victim_done = -1;
  net.StartFlow(a1, a2, 20 * kMiB, [&](bool ok) {
    EXPECT_TRUE(ok);
    victim_done = sim.now();
  });

  if (churn) {
    for (int k = 0; k < 50; ++k) {
      // Saturating add/cancel churn plus uplink wobble, all on site B's
      // links (b->b flows traverse only B-side NICs).
      sim.ScheduleAfter(10 * kMillisecond + k * 70 * kMillisecond, [&net, b1,
                                                                    b2, b3,
                                                                    k] {
        const NodeId dst = (k % 2 == 0) ? b2 : b3;
        auto slot = std::make_shared<FlowId>(kInvalidFlow);
        *slot = net.StartFlow(b1, dst, 3 * kMiB, [](bool) {});
        if (k % 3 == 0) net.CancelFlow(*slot);
        if (k % 5 == 0) {
          net.SetSiteUplink(1, Mbps(20.0 + 10.0 * (k % 7)));
        }
      });
    }
  }

  sim.RunAll();
  EXPECT_GE(victim_done, 0);
  return victim_done;
}

TEST(NetSolver, DisjointChurnDoesNotMoveCompletions) {
  // Exact timestamp equality, not tolerance: a flow on untouched links
  // must keep its completion *event*, so the times are the same SimTime
  // tick.
  EXPECT_EQ(VictimCompletion(/*churn=*/false), VictimCompletion(true));
}

TEST(NetSolver, UnchangedRateKeepsCompletionEvent) {
  sim::Simulation sim;
  FlowNetwork net(sim, NoCap());
  const SiteId s = net.AddSite(Gbps(10));
  const NodeId a = net.AddNode(s, MiBps(4));   // victim's own bottleneck
  const NodeId b = net.AddNode(s, MiBps(10));  // shared sink
  const NodeId c = net.AddNode(s, MiBps(4));

  bool victim_ok = false;
  const FlowId victim =
      net.StartFlow(a, b, 8 * kMiB, [&](bool ok) { victim_ok = ok; });
  sim.RunUntil(sim.now() + kMillisecond);  // past LAN latency: active at 4 MiB/s
  const std::optional<sim::Deadline> due = net.ScheduledCompletion(victim);
  ASSERT_TRUE(due.has_value());

  // Adding c->b shares b's RX (a touched link on the victim's path!) but
  // leaves the victim pinned at its own 4 MiB/s TX: 10/2 = 5 > 4. The
  // re-rate must see the unchanged rate and keep the victim's completion
  // deadline: the same (time, seq) key, not a fresh one at the same time.
  net.StartFlow(c, b, 8 * kMiB, [](bool) {});
  sim.RunUntil(sim.now() + kMillisecond);
  EXPECT_EQ(net.FlowRate(victim), MiBps(4));
  EXPECT_EQ(net.ScheduledCompletion(victim), due)
      << "rate-unchanged re-rate rescheduled a completion";

  // Contrast: a second a->b flow halves the victim's TX share (4 -> 2),
  // which legitimately reschedules — the key must move later now.
  net.StartFlow(a, b, 8 * kMiB, [](bool) {});
  sim.RunUntil(sim.now() + kMillisecond);
  const std::optional<sim::Deadline> moved = net.ScheduledCompletion(victim);
  ASSERT_TRUE(moved.has_value());
  EXPECT_GT(moved->time, due->time);
  EXPECT_GT(moved->seq, due->seq);

  sim.RunAll();
  EXPECT_TRUE(victim_ok);
}

}  // namespace
}  // namespace hogsim::net
