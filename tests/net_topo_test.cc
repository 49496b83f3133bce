// Tests for the pluggable intra-site topology zoo (src/net/topo).
//
// The zoo's contract has four load-bearing claims, each pinned here:
//  1. Degeneracy: star, tor with a non-blocking fabric, fattree with
//     nonblocking=1, and rotor with one rack all produce byte-identical
//     flow trajectories — same completion SimTime ticks, not "close".
//  2. The incremental even-share rates stay bitwise-equal to the
//     from-scratch EvenShareOracle() on the multi-level tor/fattree/rotor
//     graphs under seeded churn and fault ops (the TopoSolver fuzz lives
//     with the star fuzz in net_solver_test.cc).
//  3. Racks are real failure domains: fail-tor stalls every flow touching
//     the rack, partition-rack spares intra-rack traffic, degrade-fabric
//     rescales against nominal (idempotent), and the rack-aware
//     ReplicationQueue::LevelFor degenerates to the site overload when
//     racks == sites.
//  4. Rotor slices are RNG-free and lazy: no cross-rack flows, no slice
//     events; and a site-partition heal never moves the completion
//     deadlines of flows off the healed path (the incremental re-rate).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/hdfs/replication_queue.h"
#include "src/hog/hog_cluster.h"
#include "src/net/flow_network.h"
#include "src/net/topo/topology.h"
#include "src/util/spec.h"
#include "src/workload/runner.h"

namespace hogsim::net {
namespace {

// ---------------------------------------------------------------------------
// Spec grammar

TEST(TopoSpec, ParsesNameAndParams) {
  Spec spec("tor:racks=4;oversub=8");
  EXPECT_EQ(spec.name(), "tor");
  EXPECT_EQ(spec.List("racks"), std::vector<std::string>{"4"});
  EXPECT_EQ(spec.List("oversub"), std::vector<std::string>{"8"});
  EXPECT_NO_THROW(spec.Finish());  // exactly those two keys

  Spec bare("star");
  EXPECT_EQ(bare.name(), "star");
  EXPECT_NO_THROW(bare.Finish());  // no keys at all
}

TEST(TopoSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(Spec(""), std::invalid_argument);
  EXPECT_THROW(Spec(":racks=4"), std::invalid_argument);
  EXPECT_THROW(Spec("tor:"), std::invalid_argument);
  EXPECT_THROW(Spec("tor:racks"), std::invalid_argument);
  EXPECT_THROW(Spec("tor:=4"), std::invalid_argument);
  EXPECT_THROW(Spec("tor:racks=4;;oversub=2"), std::invalid_argument);
  EXPECT_THROW(Spec("tor:racks=4;racks=8"), std::invalid_argument);
}

TEST(TopoSpec, FactoryRejectsUnknownNamesKeysAndValues) {
  EXPECT_THROW(topo::CreateTopology("mesh"), std::invalid_argument);
  EXPECT_THROW(topo::CreateTopology("star:racks=2"), std::invalid_argument);
  EXPECT_THROW(topo::CreateTopology("tor:bogus=1"), std::invalid_argument);
  EXPECT_THROW(topo::CreateTopology("tor:racks=zero"), std::invalid_argument);
  EXPECT_THROW(topo::CreateTopology("tor:racks=0"), std::invalid_argument);
  EXPECT_THROW(topo::CreateTopology("fattree:k=3"), std::invalid_argument);
  EXPECT_THROW(topo::CreateTopology("rotor:slice_ms=0"),
               std::invalid_argument);
  // Values are whole decimal tokens, and a scalar key takes one value.
  for (const char* spec : {"tor:racks=4.5", "tor:racks=+4", "tor:racks=4;8",
                           "tor:oversub=0x10", "tor:oversub= 4",
                           "tor:oversub=inf", "fattree:gbps=1e400"}) {
    EXPECT_THROW(topo::CreateTopology(spec), std::invalid_argument) << spec;
  }
  // The happy paths construct.
  for (const std::string& name : topo::TopologyNames()) {
    EXPECT_NO_THROW(topo::CreateTopology(name)) << name;
  }
}

// ---------------------------------------------------------------------------
// Rack assignment

TEST(TopoRacks, TorDealsNodesRoundRobin) {
  sim::Simulation sim;
  FlowNetworkConfig config;
  config.topology = "tor:racks=3";
  FlowNetwork net(sim, config);
  const SiteId s = net.AddSite(Gbps(2));
  std::vector<NodeId> nodes;
  for (int i = 0; i < 7; ++i) nodes.push_back(net.AddNode(s, Gbps(1)));
  EXPECT_EQ(net.RackCount(s), 3u);
  EXPECT_TRUE(net.MultiRack());
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(net.RackOf(nodes[i]), static_cast<std::uint32_t>(i % 3));
  }
}

TEST(TopoRacks, SingleRackTopologiesAreNotMultiRack) {
  for (const char* spec : {"star", "tor:racks=1", "rotor:racks=1"}) {
    sim::Simulation sim;
    FlowNetworkConfig config;
    config.topology = spec;
    FlowNetwork net(sim, config);
    const SiteId s = net.AddSite(Gbps(2));
    const NodeId n = net.AddNode(s, Gbps(1));
    EXPECT_FALSE(net.MultiRack()) << spec;
    EXPECT_EQ(net.RackOf(n), 0u) << spec;
    EXPECT_EQ(net.RackCount(s), 1u) << spec;
  }
}

TEST(TopoRacks, FatTreeHasOneRackPerEdgeSwitch) {
  sim::Simulation sim;
  FlowNetworkConfig config;
  config.topology = "fattree:k=4";
  FlowNetwork net(sim, config);
  const SiteId s = net.AddSite(Gbps(2));
  // k=4: 4 pods x 2 edge switches = 8 racks, 2 host ports per edge.
  EXPECT_EQ(net.RackCount(s), 8u);
  EXPECT_TRUE(net.MultiRack());
  std::vector<NodeId> nodes;
  for (int i = 0; i < 16; ++i) nodes.push_back(net.AddNode(s, Gbps(1)));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(net.RackOf(nodes[i]), static_cast<std::uint32_t>(i / 2));
  }
}

// ---------------------------------------------------------------------------
// Degeneracy goldens: non-binding fabrics are byte-identical to star

/// A fixed scripted flow workload (staggered starts, intra-rack,
/// cross-rack, and cross-site transfers, one mid-flight cancel) on a
/// 2-site network; returns every completion timestamp in SimTime ticks.
std::vector<SimTime> ScriptedCompletions(const std::string& topology) {
  sim::Simulation sim;
  FlowNetworkConfig config;
  config.topology = topology;
  FlowNetwork net(sim, config);
  std::vector<NodeId> nodes;
  for (int s = 0; s < 2; ++s) {
    const SiteId site = net.AddSite(Mbps(80.0 + 30.0 * s));
    for (int n = 0; n < 6; ++n) {
      nodes.push_back(net.AddNode(site, Mbps(20.0 + 7.0 * n)));
    }
  }
  std::vector<SimTime> done;
  const auto start = [&](std::size_t src, std::size_t dst, Bytes bytes) {
    return net.StartFlow(nodes[src], nodes[dst], bytes, [&done, &sim](bool ok) {
      ASSERT_TRUE(ok);
      done.push_back(sim.now());
    });
  };
  // Same-rack (under tor:racks=3, nodes 0 and 3 share rack 0), cross-rack,
  // and cross-site flows, plus later arrivals that force re-shares.
  start(0, 3, 6 * kMiB);
  start(1, 4, 4 * kMiB);
  start(0, 7, 8 * kMiB);  // cross-site: fabric on both ends + WAN
  sim.ScheduleAfter(kSecond, [&] { start(2, 5, 5 * kMiB); });
  sim.ScheduleAfter(2 * kSecond, [&] { start(8, 11, 7 * kMiB); });
  sim.ScheduleAfter(3 * kSecond, [&] {
    const FlowId victim = start(6, 1, 16 * kMiB);
    sim.ScheduleAfter(kSecond, [&net, victim] { net.CancelFlow(victim); });
  });
  sim.ScheduleAfter(4 * kSecond, [&] { start(9, 2, 3 * kMiB); });
  sim.RunAll();
  EXPECT_EQ(done.size(), 6u) << topology;
  EXPECT_GT(net.delivered_bytes(), 0) << topology;
  return done;
}

TEST(TopoDegeneracy, NonBindingFabricsMatchStarBitwise) {
  const auto star = ScriptedCompletions("star");
  // Each degenerate fabric threads real multi-level paths through the
  // sharing model, yet every completion must land on the same SimTime tick.
  for (const char* spec :
       {"tor:racks=3;oversub=0", "fattree:k=4;nonblocking=1",
        "rotor:racks=1"}) {
    EXPECT_EQ(ScriptedCompletions(spec), star) << spec << " diverged from star";
  }
}

TEST(TopoDegeneracy, SingleRackTorClusterRunIsByteIdentical) {
  // Whole-stack twin: a quiet-grid HOG run under tor:racks=1;oversub=0
  // must replay the star run exactly — same event count, same response
  // time — because single-rack sites keep site-only HDFS rack strings and
  // the non-blocking fabric never moves a rate.
  const auto run = [](const std::string& topology) {
    hog::HogConfig config;
    config.sites = hog::DefaultOsgSites();
    for (auto& site : config.sites) site.node_mtbf_s = 1e9;
    config.net.topology = topology;
    hog::HogCluster hog(/*seed=*/7, config);
    hog.RequestNodes(30);
    hog.WaitForNodes(30, 2 * kHour);
    const auto input = hog.namenode().ImportFile("input", 6 * 64 * kMiB);
    mr::JobSpec spec;
    spec.name = "topo-twin";
    spec.input = input;
    spec.num_reduces = 2;
    const auto job = hog.jobtracker().SubmitJob(spec);
    workload::RunSimUntil(
        hog.sim(), [&] { return hog.jobtracker().AllJobsDone(); }, 2 * kHour);
    return std::make_pair(hog.jobtracker().job(job).ResponseTime(),
                          hog.sim().executed());
  };
  const auto star = run("star");
  const auto tor = run("tor:racks=1;oversub=0");
  EXPECT_GT(star.first, 0);
  EXPECT_EQ(star.first, tor.first);
  EXPECT_EQ(star.second, tor.second);
}

// ---------------------------------------------------------------------------
// Rack fault semantics

class TopoFaultTest : public ::testing::Test {
 protected:
  // tor with a binding 2:1 fabric: cross-rack flows run at NIC/2.
  void Build(const std::string& topology) {
    FlowNetworkConfig config;
    config.wan_flow_cap = 0;
    config.topology = topology;
    net_ = std::make_unique<FlowNetwork>(sim_, config);
    site_ = net_->AddSite(Gbps(10));
    // Round-robin over 2 racks: rack 0 = {0, 2}, rack 1 = {1, 3}.
    for (int i = 0; i < 4; ++i) nodes_.push_back(net_->AddNode(site_, Mbps(40)));
  }

  sim::Simulation sim_;
  std::unique_ptr<FlowNetwork> net_;
  SiteId site_ = kInvalidSite;
  std::vector<NodeId> nodes_;
};

TEST_F(TopoFaultTest, FailTorStallsEveryFlowTouchingTheRack) {
  Build("tor:racks=2;oversub=0");
  bool intra_ok = false, cross_ok = false, spared_ok = false;
  net_->StartFlow(nodes_[0], nodes_[2], 20 * kMiB,
                  [&](bool ok) { intra_ok = ok; });  // wholly in rack 0
  net_->StartFlow(nodes_[0], nodes_[1], 20 * kMiB,
                  [&](bool ok) { cross_ok = ok; });  // rack 0 -> rack 1
  const FlowId spared = net_->StartFlow(nodes_[1], nodes_[3], 20 * kMiB,
                                        [&](bool ok) { spared_ok = ok; });
  sim_.RunUntil(kSecond);  // all active

  EXPECT_TRUE(net_->SetRackFailed(site_, 0, true));
  // The setter reports whether the rack exists: a repeat still does, an
  // out-of-range index does not.
  EXPECT_TRUE(net_->SetRackFailed(site_, 0, true));
  EXPECT_FALSE(net_->SetRackFailed(site_, 2, true));
  sim_.RunUntil(2 * kSecond);
  // The dead ToR takes the whole rack's data path, intra-rack included;
  // rack 1's internal flow keeps its bandwidth.
  EXPECT_EQ(net_->FlowRate(spared), Mbps(40));
  EXPECT_FALSE(intra_ok);
  EXPECT_FALSE(cross_ok);
  // Long past the healthy completion time, the stalled flows still hang.
  sim_.RunUntil(kMinute);
  EXPECT_FALSE(intra_ok);
  EXPECT_FALSE(cross_ok);

  net_->SetRackFailed(site_, 0, false);
  sim_.RunAll();
  EXPECT_TRUE(intra_ok);
  EXPECT_TRUE(cross_ok);
  EXPECT_TRUE(spared_ok);
}

TEST_F(TopoFaultTest, PartitionRackSparesIntraRackTraffic) {
  Build("tor:racks=2;oversub=0");
  bool intra_ok = false, cross_ok = false;
  const FlowId intra = net_->StartFlow(nodes_[0], nodes_[2], 20 * kMiB,
                                       [&](bool ok) { intra_ok = ok; });
  net_->StartFlow(nodes_[0], nodes_[1], 20 * kMiB,
                  [&](bool ok) { cross_ok = ok; });
  sim_.RunUntil(kSecond);

  EXPECT_TRUE(net_->SetRackIsolated(site_, 0, true));
  sim_.RunUntil(2 * kSecond);
  // Isolation severs the rack boundary only: the intra-rack flow keeps
  // running (and finishes under isolation), the cross-rack one stalls —
  // still holding its even share of node 0's TX, so the survivor keeps
  // its half rather than getting the stalled flow's share back.
  EXPECT_EQ(net_->FlowRate(intra), Mbps(20));
  EXPECT_FALSE(cross_ok);
  sim_.RunUntil(kMinute);
  EXPECT_TRUE(intra_ok);
  EXPECT_FALSE(cross_ok);

  net_->SetRackIsolated(site_, 0, false);
  sim_.RunAll();
  EXPECT_TRUE(cross_ok);
}

TEST_F(TopoFaultTest, DegradeFabricScalesAgainstNominalIdempotently) {
  Build("tor:racks=2;oversub=2");
  // One cross-rack flow. Each rack holds two 40 Mbps NICs, so its 2:1
  // uplink carries 80/2 = 40 Mbps: fabric and NIC tie at full NIC rate.
  const FlowId flow =
      net_->StartFlow(nodes_[0], nodes_[1], 512 * kMiB, [](bool) {});
  sim_.RunUntil(kSecond);
  EXPECT_EQ(net_->FlowRate(flow), Mbps(40));

  // Halving the fabric makes the rack uplink the bottleneck at 20 Mbps.
  EXPECT_TRUE(net_->SetFabricDegrade(site_, 0.5));
  EXPECT_EQ(net_->FlowRate(flow), Mbps(20));
  // Repeats rescale against nominal — they never compound.
  net_->SetFabricDegrade(site_, 0.5);
  EXPECT_EQ(net_->FlowRate(flow), Mbps(20));
  net_->SetFabricDegrade(site_, 1.0);
  EXPECT_EQ(net_->FlowRate(flow), Mbps(40));
}

TEST_F(TopoFaultTest, RackFaultsAreNoOpsUnderStar) {
  Build("star");
  bool ok = false;
  net_->StartFlow(nodes_[0], nodes_[1], 20 * kMiB, [&](bool v) { ok = v; });
  EXPECT_FALSE(net_->SetRackFailed(site_, 0, true));
  EXPECT_FALSE(net_->SetRackIsolated(site_, 0, true));
  EXPECT_FALSE(net_->SetFabricDegrade(site_, 0.1));
  sim_.RunAll();
  EXPECT_TRUE(ok);  // star has no fabric to fail
}

// ---------------------------------------------------------------------------
// Rotor slices

TEST(TopoRotor, SliceTimerIsLazyAndRunAllTerminates) {
  // Intra-rack flows are slice-independent, so the boundary timer is
  // never armed: the rotor run executes exactly the same events as star.
  const auto executed = [](const std::string& topology) {
    sim::Simulation sim;
    FlowNetworkConfig config;
    config.topology = topology;
    FlowNetwork net(sim, config);
    const SiteId s = net.AddSite(Gbps(10));
    const NodeId a = net.AddNode(s, Mbps(40));
    const NodeId d = net.AddNode(s, Mbps(40));
    (void)d;
    // Rack 0 = arrivals {0, 2}: the third and first nodes share a rack.
    const NodeId b = net.AddNode(s, Mbps(40));
    bool ok = false;
    net.StartFlow(a, b, 40 * kMiB, [&](bool v) { ok = v; });
    sim.RunAll();
    EXPECT_TRUE(ok);
    return sim.executed();
  };
  EXPECT_EQ(executed("rotor:racks=2;slice_ms=10"), executed("star"));
}

TEST(TopoRotor, CrossRackFlowsRideSlicesAndDrainCleanly) {
  sim::Simulation sim;
  FlowNetworkConfig config;
  config.topology = "rotor:racks=4;slice_ms=50;gbps=0.05";
  FlowNetwork net(sim, config);
  const SiteId s = net.AddSite(Gbps(10));
  std::vector<NodeId> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(net.AddNode(s, Mbps(40)));
  int done = 0;
  // Cross-rack pairs: direct in some slices, two-hop relays in others.
  net.StartFlow(nodes[0], nodes[1], 30 * kMiB, [&](bool ok) {
    EXPECT_TRUE(ok);
    ++done;
  });
  net.StartFlow(nodes[2], nodes[7], 30 * kMiB, [&](bool ok) {
    EXPECT_TRUE(ok);
    ++done;
  });
  sim.RunAll();  // terminates: the timer disarms once slice flows drain
  EXPECT_EQ(done, 2);
  EXPECT_EQ(net.delivered_bytes(), 60 * kMiB);
  // Slice boundaries were processed and consumed no run RNG (the counter
  // is the only trace they leave).
  EXPECT_GT(sim.obs().metrics().GetCounter("net.topo.rotor_slices").value(),
            0u);
}

// ---------------------------------------------------------------------------
// Partition heal keeps flows off the healed path intact (incremental re-rate)

TEST(TopoPartition, HealDoesNotCancelCompletionsInUntouchedComponents) {
  sim::Simulation sim;
  FlowNetworkConfig config;
  config.topology = "tor:racks=2;oversub=2";
  FlowNetwork net(sim, config);
  const SiteId sa = net.AddSite(Mbps(100));
  const SiteId sb = net.AddSite(Mbps(100));
  const SiteId sc = net.AddSite(Mbps(100));
  const NodeId a = net.AddNode(sa, Mbps(40));
  const NodeId b = net.AddNode(sb, Mbps(40));
  const NodeId c1 = net.AddNode(sc, Mbps(40));
  const NodeId c2 = net.AddNode(sc, Mbps(40));

  bool ab_ok = false, victim_ok = false;
  const FlowId ab = net.StartFlow(a, b, 8 * kMiB, [&](bool ok) { ab_ok = ok; });
  const FlowId victim =
      net.StartFlow(c1, c2, 64 * kMiB, [&](bool ok) { victim_ok = ok; });
  sim.RunUntil(kSecond);
  net.SetSitePartition(sa, sb, true);
  sim.RunUntil(2 * kSecond);
  EXPECT_FALSE(ab_ok);
  EXPECT_EQ(net.ScheduledCompletion(ab), std::nullopt);  // stalled: no key

  // The heal re-rates only flows crossing the A and B uplinks. The victim
  // flow in site C shares no links with them; its completion deadline must
  // survive the heal with the same (time, seq) key, while the stalled
  // a->b flow gets a deadline back.
  const std::optional<sim::Deadline> victim_due =
      net.ScheduledCompletion(victim);
  ASSERT_TRUE(victim_due.has_value());
  net.SetSitePartition(sa, sb, false);
  EXPECT_EQ(net.ScheduledCompletion(victim), victim_due)
      << "partition heal rescheduled a completion off the healed path";
  EXPECT_NE(net.ScheduledCompletion(ab), std::nullopt);
  sim.RunAll();
  EXPECT_TRUE(ab_ok);
  EXPECT_TRUE(victim_ok);

  // And a heal with nothing in flight is free: no cancellations at all.
  net.SetSitePartition(sa, sb, true);
  const std::uint64_t idle_before = sim.cancelled();
  net.SetSitePartition(sa, sb, false);
  EXPECT_EQ(sim.cancelled(), idle_before);
}

// ---------------------------------------------------------------------------
// Rack-aware replication priority

TEST(TopoLevelFor, RackOverloadDegeneratesWhenRacksEqualSites) {
  using Q = hdfs::ReplicationQueue;
  // Under star every site is one rack, so racks == sites for any replica
  // set: the 4-arg overload must reproduce the 3-arg one bit-for-bit.
  for (int live = 0; live <= 10; ++live) {
    for (int repl = 1; repl <= 10; ++repl) {
      for (int sites = 1; sites <= live; ++sites) {
        EXPECT_EQ(Q::LevelFor(live, repl, sites, sites),
                  Q::LevelFor(live, repl, sites))
            << "live=" << live << " repl=" << repl << " sites=" << sites;
      }
    }
  }
}

TEST(TopoLevelFor, RacksEscalateOneTierBelowSites) {
  using Q = hdfs::ReplicationQueue;
  // Plenty of replicas across 3 sites, but all huddled in one rack: one
  // ToR failure from unreachability.
  EXPECT_EQ(Q::LevelFor(6, 10, 3, 1), Q::kCritical);
  // Two racks at most halves the fabric: normal escalates to badly.
  EXPECT_EQ(Q::LevelFor(8, 10, 3, 2), Q::kBadly);
  // Sites dominate when they are the tighter constraint already.
  EXPECT_EQ(Q::LevelFor(8, 10, 1, 4), Q::kCritical);
  // Spread wide on both tiers: rank by count alone.
  EXPECT_EQ(Q::LevelFor(8, 10, 4, 8), Q::kNormal);
  // A single survivor is critical regardless of spread arithmetic.
  EXPECT_EQ(Q::LevelFor(1, 10, 1, 1), Q::kCritical);
}

}  // namespace
}  // namespace hogsim::net
