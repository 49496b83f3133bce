// Unit and property tests for the flow-level network model.
#include <gtest/gtest.h>

#include <cmath>

#include "src/net/flow_network.h"
#include "src/util/rng.h"

namespace hogsim::net {
using hogsim::Rng;
namespace {

FlowNetworkConfig NoCap() {
  FlowNetworkConfig config;
  config.wan_flow_cap = 0;  // most tests reason about raw link sharing
  return config;
}

class NetTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
};

TEST_F(NetTest, LatencyTiers) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s1 = net.AddSite(Gbps(10));
  const SiteId s2 = net.AddSite(Gbps(10));
  const NodeId a = net.AddNode(s1, Gbps(1));
  const NodeId b = net.AddNode(s1, Gbps(1));
  const NodeId c = net.AddNode(s2, Gbps(1));
  EXPECT_EQ(net.Latency(a, a), 0);
  EXPECT_EQ(net.Latency(a, b), net.config().lan_latency);
  EXPECT_EQ(net.Latency(a, c), net.config().wan_latency);
}

TEST_F(NetTest, SingleFlowRunsAtNicRate) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(Gbps(100));
  const NodeId a = net.AddNode(s, MiBps(100));
  const NodeId b = net.AddNode(s, MiBps(100));
  SimTime done_at = -1;
  net.StartFlow(a, b, 100 * kMiB, [&](bool ok) {
    EXPECT_TRUE(ok);
    done_at = sim_.now();
  });
  sim_.RunAll();
  // 100 MiB at 100 MiB/s = 1 s, plus LAN latency.
  EXPECT_NEAR(ToSeconds(done_at), 1.0 + ToSeconds(net.config().lan_latency),
              0.01);
  EXPECT_EQ(net.delivered_bytes(), 100 * kMiB);
}

TEST_F(NetTest, TwoFlowsShareANic) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(Gbps(100));
  const NodeId a = net.AddNode(s, MiBps(100));
  const NodeId b = net.AddNode(s, MiBps(100));
  const NodeId c = net.AddNode(s, MiBps(100));
  int done = 0;
  // Both flows leave `a`: its TX link is the bottleneck, each gets 50 MiB/s.
  net.StartFlow(a, b, 100 * kMiB, [&](bool) { ++done; });
  net.StartFlow(a, c, 100 * kMiB, [&](bool) { ++done; });
  sim_.RunAll();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(ToSeconds(sim_.now()), 2.0, 0.05);
}

TEST_F(NetTest, CrossSiteFlowsShareUplink) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s1 = net.AddSite(MiBps(100));  // narrow uplink
  const SiteId s2 = net.AddSite(MiBps(100));
  const NodeId a1 = net.AddNode(s1, MiBps(1000));
  const NodeId a2 = net.AddNode(s1, MiBps(1000));
  const NodeId b1 = net.AddNode(s2, MiBps(1000));
  const NodeId b2 = net.AddNode(s2, MiBps(1000));
  int done = 0;
  net.StartFlow(a1, b1, 100 * kMiB, [&](bool) { ++done; });
  net.StartFlow(a2, b2, 100 * kMiB, [&](bool) { ++done; });
  sim_.RunAll();
  EXPECT_EQ(done, 2);
  // 200 MiB through a shared 100 MiB/s uplink: ~2 s + WAN latency.
  EXPECT_NEAR(ToSeconds(sim_.now()), 2.0 + ToSeconds(net.config().wan_latency),
              0.05);
}

TEST_F(NetTest, IntraSiteAvoidsUplink) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(MiBps(1));  // uplink is nearly dead
  const NodeId a = net.AddNode(s, MiBps(100));
  const NodeId b = net.AddNode(s, MiBps(100));
  SimTime done_at = -1;
  net.StartFlow(a, b, 100 * kMiB, [&](bool) { done_at = sim_.now(); });
  sim_.RunAll();
  EXPECT_NEAR(ToSeconds(done_at), 1.0, 0.01);  // unhindered by the uplink
}

TEST_F(NetTest, WanFlowCapLimitsCrossSiteOnly) {
  FlowNetworkConfig config;
  config.wan_flow_cap = MiBps(10);
  FlowNetwork net(sim_, config);
  const SiteId s1 = net.AddSite(Gbps(10));
  const SiteId s2 = net.AddSite(Gbps(10));
  const NodeId a = net.AddNode(s1, MiBps(100));
  const NodeId b = net.AddNode(s1, MiBps(100));
  const NodeId c = net.AddNode(s2, MiBps(100));
  SimTime local_done = -1, wan_done = -1;
  net.StartFlow(a, b, 100 * kMiB, [&](bool) { local_done = sim_.now(); });
  sim_.RunAll();
  net.StartFlow(a, c, 100 * kMiB, [&](bool) { wan_done = sim_.now(); });
  const SimTime wan_start = sim_.now();
  sim_.RunAll();
  EXPECT_NEAR(ToSeconds(local_done), 1.0, 0.05);         // NIC-limited
  EXPECT_NEAR(ToSeconds(wan_done - wan_start), 10.0, 0.1);  // cap-limited
}

TEST_F(NetTest, ZeroByteFlowCompletesAfterLatency) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(Gbps(10));
  const NodeId a = net.AddNode(s, Gbps(1));
  const NodeId b = net.AddNode(s, Gbps(1));
  SimTime done_at = -1;
  net.StartFlow(a, b, 0, [&](bool ok) {
    EXPECT_TRUE(ok);
    done_at = sim_.now();
  });
  sim_.RunAll();
  EXPECT_EQ(done_at, net.config().lan_latency);
}

TEST_F(NetTest, LoopbackIsFast) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(Gbps(10));
  const NodeId a = net.AddNode(s, MiBps(1));  // tiny NIC must not matter
  bool done = false;
  net.StartFlow(a, a, 100 * kMiB, [&](bool) { done = true; });
  sim_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_LT(ToSeconds(sim_.now()), 0.1);
}

TEST_F(NetTest, CancelSuppressesCallbackAndFreesShare) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(Gbps(10));
  const NodeId a = net.AddNode(s, MiBps(100));
  const NodeId b = net.AddNode(s, MiBps(100));
  const NodeId c = net.AddNode(s, MiBps(100));
  bool cancelled_fired = false;
  SimTime done_at = -1;
  const FlowId doomed =
      net.StartFlow(a, b, 1000 * kMiB, [&](bool) { cancelled_fired = true; });
  net.StartFlow(a, c, 100 * kMiB, [&](bool) { done_at = sim_.now(); });
  sim_.ScheduleAt(FromSeconds(1.0), [&] { net.CancelFlow(doomed); });
  sim_.RunAll();
  EXPECT_FALSE(cancelled_fired);
  // First second shared (50 MiB moved), then full rate for remaining 50 MiB.
  EXPECT_NEAR(ToSeconds(done_at), 1.5, 0.05);
}

TEST_F(NetTest, FailFlowsAtNodeReportsFailure) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(Gbps(10));
  const NodeId a = net.AddNode(s, MiBps(100));
  const NodeId b = net.AddNode(s, MiBps(100));
  bool ok_result = true;
  net.StartFlow(a, b, 1000 * kMiB, [&](bool ok) { ok_result = ok; });
  sim_.ScheduleAt(FromSeconds(1.0), [&] { net.FailFlowsAtNode(b); });
  sim_.RunAll();
  EXPECT_FALSE(ok_result);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_EQ(net.delivered_bytes(), 0);
}

TEST_F(NetTest, FlowRateReflectsSharing) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(Gbps(10));
  const NodeId a = net.AddNode(s, MiBps(100));
  const NodeId b = net.AddNode(s, MiBps(100));
  const FlowId f1 = net.StartFlow(a, b, kGiB, [](bool) {});
  sim_.RunUntil(net.config().lan_latency + 1);
  EXPECT_NEAR(net.FlowRate(f1), MiBps(100), 1.0);
  const FlowId f2 = net.StartFlow(a, b, kGiB, [](bool) {});
  sim_.RunUntil(sim_.now() + net.config().lan_latency + 1);
  EXPECT_NEAR(net.FlowRate(f1), MiBps(50), 1.0);
  EXPECT_NEAR(net.FlowRate(f2), MiBps(50), 1.0);
}

// Even-share does not redistribute spare capacity: a flow bottlenecked
// elsewhere keeps its even split of a shared link.
TEST_F(NetTest, EvenShareKeepsBottleneckedFlowsShare) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s = net.AddSite(Gbps(100));
  const NodeId a = net.AddNode(s, MiBps(100));
  const NodeId b = net.AddNode(s, MiBps(100));
  const NodeId c = net.AddNode(s, MiBps(10));  // slow receiver
  // Flow 1: a->c, bottlenecked at c's 10 MiB/s RX.
  // Flow 2: a->b, shares a's TX with flow 1.
  net.StartFlow(a, c, 10 * kMiB, [](bool) {});
  SimTime f2_done = -1;
  net.StartFlow(a, b, 90 * kMiB, [&](bool) { f2_done = sim_.now(); });
  sim_.RunAll();
  // Even-share halves a's TX: flow 2 runs at 50 MiB/s until flow 1
  // finishes, then speeds up — strictly slower than the ~1 s it would
  // take with flow 1's unused 40 MiB/s handed over.
  EXPECT_GT(ToSeconds(f2_done), 1.2);
}

// The per-flow WAN cap as a sweep axis. It has no PrintTo on purpose:
// gtest prints a scoped enum as its four value bytes, which are the same in
// every build, so the sweep's ctest names stay stable.
enum class WanCap { kOff, kOn };

// Property sweep: across random workloads, even-share conserves bytes and
// completes every flow, with the per-flow WAN cap off and on.
class NetPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, WanCap>> {};

TEST_P(NetPropertyTest, ConservationAndCompletion) {
  const auto [seed, cap] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  sim::Simulation sim;
  FlowNetwork net(sim, cap == WanCap::kOn ? FlowNetworkConfig{} : NoCap());
  ASSERT_EQ(net.config().wan_flow_cap > 0, cap == WanCap::kOn);
  std::vector<NodeId> nodes;
  for (int s = 0; s < 3; ++s) {
    const SiteId site = net.AddSite(MiBps(200));
    for (int n = 0; n < 4; ++n) {
      nodes.push_back(net.AddNode(site, MiBps(100)));
    }
  }
  Bytes total = 0;
  int completed = 0;
  int started = 0;
  for (int i = 0; i < 60; ++i) {
    const auto src = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1));
    }
    const Bytes bytes = rng.UniformInt(1, 20) * kMiB;
    total += bytes;
    ++started;
    sim.ScheduleAt(FromSeconds(rng.Uniform(0, 5)), [&, src, dst, bytes] {
      net.StartFlow(nodes[src], nodes[dst], bytes, [&completed](bool ok) {
        EXPECT_TRUE(ok);
        ++completed;
      });
    });
  }
  sim.RunAll(kHour);
  EXPECT_FALSE(sim.LimitReached());
  EXPECT_EQ(completed, started);
  EXPECT_EQ(net.delivered_bytes(), total);
  EXPECT_EQ(net.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetPropertyTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(WanCap::kOff, WanCap::kOn)));

// Fault hooks: inter-site partition and uplink degradation (src/fault).

TEST_F(NetTest, PartitionStallsFlowAndHealResumesIt) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s1 = net.AddSite(MiBps(100));
  const SiteId s2 = net.AddSite(MiBps(100));
  const NodeId a = net.AddNode(s1, MiBps(100));
  const NodeId b = net.AddNode(s2, MiBps(100));
  SimTime done_at = -1;
  bool ok = false;
  net.StartFlow(a, b, 100 * kMiB, [&](bool flow_ok) {
    ok = flow_ok;
    done_at = sim_.now();
  });
  net.SetSitePartition(s1, s2, true);
  EXPECT_TRUE(net.SitesPartitioned(s1, s2));
  // Ten seconds of partition: the flow makes zero progress.
  sim_.RunUntil(10 * kSecond);
  EXPECT_EQ(done_at, -1);
  net.SetSitePartition(s1, s2, false);
  EXPECT_FALSE(net.SitesPartitioned(s1, s2));
  sim_.RunAll();
  EXPECT_TRUE(ok);
  // All ~1 s of transfer happened after the heal.
  EXPECT_NEAR(ToSeconds(done_at), 10.0 + 1.0, 0.1);
}

TEST_F(NetTest, PartitionLeavesOtherSitePairsFlowing) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s1 = net.AddSite(MiBps(100));
  const SiteId s2 = net.AddSite(MiBps(100));
  const SiteId s3 = net.AddSite(MiBps(100));
  const NodeId a = net.AddNode(s1, MiBps(100));
  const NodeId b = net.AddNode(s2, MiBps(100));
  const NodeId c = net.AddNode(s3, MiBps(100));
  int done = 0;
  net.SetSitePartition(s1, s2, true);
  net.StartFlow(a, b, kMiB, [&](bool) { ++done; });   // severed pair
  net.StartFlow(a, c, 100 * kMiB, [&](bool) { ++done; });  // unaffected
  sim_.RunUntil(10 * kSecond);
  EXPECT_EQ(done, 1);  // only the s1->s3 flow finished
  net.SetSitePartition(s1, s2, false);
  sim_.RunAll();
  EXPECT_EQ(done, 2);
}

TEST_F(NetTest, SetSiteUplinkSlowsCrossSiteFlows) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s1 = net.AddSite(MiBps(100));
  const SiteId s2 = net.AddSite(MiBps(100));
  const NodeId a = net.AddNode(s1, MiBps(100));
  const NodeId b = net.AddNode(s2, MiBps(100));
  EXPECT_EQ(net.SiteUplink(s1), MiBps(100));
  net.SetSiteUplink(s1, MiBps(25));
  EXPECT_EQ(net.SiteUplink(s1), MiBps(25));
  SimTime done_at = -1;
  net.StartFlow(a, b, 100 * kMiB, [&](bool) { done_at = sim_.now(); });
  sim_.RunAll();
  // 100 MiB through a 25 MiB/s uplink: ~4 s + WAN latency.
  EXPECT_NEAR(ToSeconds(done_at), 4.0 + ToSeconds(net.config().wan_latency),
              0.05);
}

TEST_F(NetTest, SetSiteUplinkMidFlowReallocates) {
  FlowNetwork net(sim_, NoCap());
  const SiteId s1 = net.AddSite(MiBps(100));
  const SiteId s2 = net.AddSite(MiBps(100));
  const NodeId a = net.AddNode(s1, MiBps(100));
  const NodeId b = net.AddNode(s2, MiBps(100));
  SimTime done_at = -1;
  net.StartFlow(a, b, 100 * kMiB, [&](bool) { done_at = sim_.now(); });
  // At 0.5 s, degrade to quarter rate. Data moves only after wan_latency
  // (call it L): (0.5 - L) s at 100 MiB/s, the rest at 25 MiB/s, so the
  // flow lands at 0.5 + (100 - (0.5 - L) * 100) / 25 = 2.5 + 4L.
  sim_.ScheduleAt(500 * kMillisecond,
                  [&] { net.SetSiteUplink(s1, MiBps(25)); });
  sim_.RunAll();
  EXPECT_NEAR(ToSeconds(done_at),
              2.5 + 4 * ToSeconds(net.config().wan_latency), 0.05);
}

}  // namespace
}  // namespace hogsim::net
