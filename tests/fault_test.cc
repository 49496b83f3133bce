// Tests for the fault-injection subsystem (src/fault): scenario grammar
// golden round-trips, parse-error positions, preemption-trace replay, and
// the injector driving faults into a live grid/network.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/injector.h"
#include "src/fault/scenario.h"
#include "src/grid/grid.h"
#include "src/net/flow_network.h"

namespace hogsim::fault {
namespace {

// ---------------------------------------------------------------------------
// Scenario grammar

// One directive per action kind, exercising every operand shape the
// grammar knows: counts, fractions, factors, durations, optional
// durations, `all`, and the `every ... until` form.
constexpr const char* kAllKinds = R"(# every action kind once
at 10s preempt-nodes 0 3
at 20s preempt-site 1 0.25
at 30s zombify 0 2
at 40s freeze-acquisition all 5m
at 50s throttle-acquisition 2 4.5
at 60s degrade-uplink 1 0.3 2m
at 65s degrade-uplink 1 0.5
at 70s partition 0 1 90s
at 80s shrink-disks all 0.5
at 90s fill-disks 3 0.9
at 100s namenode-blackout 45s
every 2m until 30m jobtracker-blackout 30s
at 110s fail-tor 0 2 90s
at 120s partition-rack all 1 2m
at 130s degrade-fabric 2 0.4 3m
at 135s degrade-fabric all 0.6
at 140s slow-node 3 4 10m
at 145s slow-node 5 2
at 150s slow-site all 1.5 5m
at 160s delay-heartbeats 1 30s 10m
at 165s delay-heartbeats all 10s
at 170s stall-disk 2 90s
)";

void ExpectSameScenario(const Scenario& a, const Scenario& b) {
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    SCOPED_TRACE("action " + std::to_string(i));
    const TimedAction& x = a.actions[i];
    const TimedAction& y = b.actions[i];
    EXPECT_EQ(x.at, y.at);
    EXPECT_EQ(x.period, y.period);
    EXPECT_EQ(x.until, y.until);
    EXPECT_EQ(x.action.kind, y.action.kind);
    EXPECT_EQ(x.action.site, y.action.site);
    EXPECT_EQ(x.action.site_b, y.action.site_b);
    EXPECT_EQ(x.action.rack, y.action.rack);
    EXPECT_EQ(x.action.node, y.action.node);
    EXPECT_EQ(x.action.jitter, y.action.jitter);
    EXPECT_DOUBLE_EQ(x.action.value, y.action.value);
    EXPECT_EQ(x.action.duration, y.action.duration);
  }
}

TEST(Scenario, GoldenRoundTripEveryActionKind) {
  const Scenario parsed = ParseScenario(kAllKinds);
  ASSERT_EQ(parsed.actions.size(), 22u);
  const std::string canonical = FormatScenario(parsed);
  const Scenario again = ParseScenario(canonical);
  ExpectSameScenario(parsed, again);
  // The canonical form is a fixed point of format-then-parse.
  EXPECT_EQ(FormatScenario(again), canonical);
}

TEST(Scenario, ParsesOperandsExactly) {
  const Scenario s = ParseScenario(kAllKinds);
  EXPECT_EQ(s.actions[0].at, 10 * kSecond);
  EXPECT_EQ(s.actions[0].action.kind, ActionKind::kPreemptNodes);
  EXPECT_EQ(s.actions[0].action.site, 0);
  EXPECT_DOUBLE_EQ(s.actions[0].action.value, 3.0);

  EXPECT_DOUBLE_EQ(s.actions[1].action.value, 0.25);
  EXPECT_EQ(s.actions[3].action.site, kAllSites);
  EXPECT_EQ(s.actions[3].action.duration, 5 * kMinute);
  EXPECT_DOUBLE_EQ(s.actions[4].action.value, 4.5);
  // degrade-uplink with and without the optional duration.
  EXPECT_EQ(s.actions[5].action.duration, 2 * kMinute);
  EXPECT_EQ(s.actions[6].action.duration, 0);

  EXPECT_EQ(s.actions[7].action.site, 0);
  EXPECT_EQ(s.actions[7].action.site_b, 1);
  EXPECT_EQ(s.actions[7].action.duration, 90 * kSecond);

  const TimedAction& every = s.actions[11];
  EXPECT_EQ(every.at, 2 * kMinute);  // first firing after one period
  EXPECT_EQ(every.period, 2 * kMinute);
  EXPECT_EQ(every.until, 30 * kMinute);
  EXPECT_EQ(every.line, 13);

  // The rack-level fabric kinds.
  EXPECT_EQ(s.actions[12].action.kind, ActionKind::kFailTor);
  EXPECT_EQ(s.actions[12].action.site, 0);
  EXPECT_EQ(s.actions[12].action.rack, 2);
  EXPECT_EQ(s.actions[12].action.duration, 90 * kSecond);
  EXPECT_EQ(s.actions[13].action.kind, ActionKind::kPartitionRack);
  EXPECT_EQ(s.actions[13].action.site, kAllSites);
  EXPECT_EQ(s.actions[13].action.rack, 1);
  EXPECT_EQ(s.actions[14].action.kind, ActionKind::kDegradeFabric);
  EXPECT_DOUBLE_EQ(s.actions[14].action.value, 0.4);
  EXPECT_EQ(s.actions[14].action.duration, 3 * kMinute);
  // degrade-fabric's duration is optional, like degrade-uplink's.
  EXPECT_EQ(s.actions[15].action.duration, 0);

  // The gray kinds: slow-node / stall-disk address a grid LEASE (the
  // `node` operand), slow-site / delay-heartbeats a site, and the
  // slowdown durations are optional (0 = until restored).
  EXPECT_EQ(s.actions[16].action.kind, ActionKind::kSlowNode);
  EXPECT_EQ(s.actions[16].action.node, 3);
  EXPECT_DOUBLE_EQ(s.actions[16].action.value, 4.0);
  EXPECT_EQ(s.actions[16].action.duration, 10 * kMinute);
  EXPECT_EQ(s.actions[17].action.duration, 0);
  EXPECT_EQ(s.actions[18].action.kind, ActionKind::kSlowSite);
  EXPECT_EQ(s.actions[18].action.site, kAllSites);
  EXPECT_DOUBLE_EQ(s.actions[18].action.value, 1.5);
  EXPECT_EQ(s.actions[19].action.kind, ActionKind::kDelayHeartbeats);
  EXPECT_EQ(s.actions[19].action.site, 1);
  EXPECT_EQ(s.actions[19].action.jitter, 30 * kSecond);
  EXPECT_EQ(s.actions[19].action.duration, 10 * kMinute);
  EXPECT_EQ(s.actions[20].action.site, kAllSites);
  EXPECT_EQ(s.actions[20].action.duration, 0);
  EXPECT_EQ(s.actions[21].action.kind, ActionKind::kStallDisk);
  EXPECT_EQ(s.actions[21].action.node, 2);
  EXPECT_EQ(s.actions[21].action.duration, 90 * kSecond);
}

TEST(Scenario, TimeUnitsIncludingBareSeconds) {
  const Scenario s = ParseScenario(
      "at 90 preempt-nodes 0 1\n"
      "at 1500ms preempt-nodes 0 1\n"
      "at 250us preempt-nodes 0 1\n"
      "at 2m preempt-nodes 0 1\n"
      "at 1h preempt-nodes 0 1\n"
      "at 1.5s preempt-nodes 0 1\n");
  EXPECT_EQ(s.actions[0].at, 90 * kSecond);
  EXPECT_EQ(s.actions[1].at, 1500 * kMillisecond);
  EXPECT_EQ(s.actions[2].at, 250);  // ticks are microseconds
  EXPECT_EQ(s.actions[3].at, 2 * kMinute);
  EXPECT_EQ(s.actions[4].at, kHour);
  EXPECT_EQ(s.actions[5].at, 1500 * kMillisecond);
}

TEST(Scenario, CommentsAndBlankLinesIgnored) {
  const Scenario s = ParseScenario(
      "# header\n\n   \nat 1s preempt-nodes 0 1  # trailing comment\n\n");
  ASSERT_EQ(s.actions.size(), 1u);
  EXPECT_EQ(s.actions[0].line, 4);
}

// Each malformed line reports its exact source position.
struct BadLine {
  const char* text;
  int line;
  int column;
};

TEST(Scenario, MalformedLinePositions) {
  const BadLine cases[] = {
      {"at 1s explode 0 1", 1, 7},           // unknown action
      {"after 1s preempt-nodes 0 1", 1, 1},  // unknown directive
      {"at xs preempt-nodes 0 1", 1, 4},     // bad number
      {"at 1s preempt-nodes 0", 1, 22},      // missing count
      {"at 1s preempt-nodes 0 1 9", 1, 25},  // trailing operand
      {"at 1s preempt-site 0 1.5", 1, 22},   // fraction > 1
      {"at 1s partition 3 3 10s", 1, 19},    // same site twice
      {"at 1s partition all 1 10s", 1, 17},  // `all` not allowed here
      {"at 1s throttle-acquisition 0 0", 1, 30},  // factor must be > 0
      {"\nat 1s freeze-acquisition 0 0s", 2, 28},  // zero duration
      {"every 10s until 5s preempt-nodes 0 1", 1, 17},  // until < period
      {"at 1s slow-node 0 0", 1, 19},          // factor must be > 0
      {"at 1s delay-heartbeats 0 0s", 1, 26},  // jitter must be > 0
      {"at 1s stall-disk 0", 1, 19},           // missing duration
  };
  for (const BadLine& bad : cases) {
    SCOPED_TRACE(bad.text);
    try {
      ParseScenario(bad.text, "f.txt");
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_EQ(e.line(), bad.line);
      EXPECT_EQ(e.column(), bad.column);
      EXPECT_NE(std::string(e.what()).find("f.txt:"), std::string::npos);
    }
  }
}

TEST(Scenario, PreemptionTraceReplay) {
  const Scenario s = ParsePreemptionTrace(
      "# factory log extract\n"
      "180 0 2\n"
      "420.5 2 1\n");
  ASSERT_EQ(s.actions.size(), 2u);
  EXPECT_EQ(s.actions[0].at, 180 * kSecond);
  EXPECT_EQ(s.actions[0].action.kind, ActionKind::kPreemptNodes);
  EXPECT_EQ(s.actions[0].action.site, 0);
  EXPECT_DOUBLE_EQ(s.actions[0].action.value, 2.0);
  EXPECT_EQ(s.actions[1].at, 420 * kSecond + 500 * kMillisecond);
  // A trace round-trips through the scenario grammar too.
  ExpectSameScenario(s, ParseScenario(FormatScenario(s)));
  // Malformed record: missing the node count.
  EXPECT_THROW(ParsePreemptionTrace("180 0\n"), ScenarioError);
}

TEST(Scenario, CommittedScenarioFilesRoundTrip) {
  const std::string root = HOGSIM_SOURCE_DIR "/scenarios/";
  for (const char* name :
       {"site_storm.txt", "rolling_partition.txt", "namenode_blackout.txt",
        "heartbeat_jitter.txt", "slow_node_storm.txt", "tor_failure.txt",
        "oversub_shuffle_storm.txt", "osg_replay.trace"}) {
    SCOPED_TRACE(name);
    const Scenario s = LoadScenarioFile(root + name);
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s.name, root + name);
    ExpectSameScenario(s, ParseScenario(FormatScenario(s)));
  }
}

TEST(Scenario, LoadRejectsMissingFile) {
  EXPECT_THROW(LoadScenarioFile("/nonexistent/x.txt"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Injector against a live grid

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : net_(sim_) {
    const net::SiteId central = net_.AddSite(Gbps(10));
    repo_ = net_.AddNode(central, Gbps(1));
  }

  grid::Grid MakeGrid(grid::GridConfig config = {}) {
    return grid::Grid(sim_, net_, repo_, Rng(42), config);
  }

  static grid::SiteConfig QuietSite(std::string name, std::string domain) {
    grid::SiteConfig site;
    site.resource_name = std::move(name);
    site.domain = std::move(domain);
    site.pool_size = 100;
    site.node_mtbf_s = 1e9;  // all churn comes from the injector
    site.burst_interval_s = 0;
    site.queue_delay_mean_s = 30.0;
    return site;
  }

  // Spins the grid up to `target` running nodes.
  void SpinUp(grid::Grid& grid, int target) {
    grid.SetTargetNodes(target);
    sim_.RunUntil(kHour);
    ASSERT_EQ(grid.running_nodes(), target);
  }

  std::unique_ptr<FaultInjector> Armed(grid::Grid& grid,
                                       const std::string& text) {
    auto injector = std::make_unique<FaultInjector>(
        sim_, InjectorTargets{&grid, &net_, nullptr, nullptr},
        ParseScenario(text));
    injector->Arm();
    return injector;
  }

  sim::Simulation sim_;
  net::FlowNetwork net_;
  net::NodeId repo_ = net::kInvalidNode;
};

TEST_F(InjectorTest, PreemptNodesAndZombifyLand) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  SpinUp(grid, 10);
  const auto base = grid.preemptions();
  const auto injector = Armed(grid,
                                 "at 10s preempt-nodes 0 3\n"
                                 "at 20s zombify 0 2\n");
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(grid.preemptions() - base, 5u);
  EXPECT_EQ(grid.zombie_nodes(), 2);
  EXPECT_EQ(injector->injected(), 2u);
  EXPECT_EQ(injector->skipped(), 0u);
}

TEST_F(InjectorTest, PeriodicActionStopsAtUntil) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  SpinUp(grid, 20);
  const auto base = grid.preemptions();
  const auto injector =
      Armed(grid, "every 10s until 35s preempt-nodes 0 1\n");
  sim_.RunUntil(sim_.now() + 10 * kMinute);
  // Firings at +10s, +20s, +30s; 40s is past `until`.
  EXPECT_EQ(injector->injected(), 3u);
  EXPECT_EQ(grid.preemptions() - base, 3u);
}

TEST_F(InjectorTest, FreezeAndThrottleShapeAcquisition) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  SpinUp(grid, 10);
  const auto injector = Armed(grid,
                                 "at 1s freeze-acquisition 0 10m\n"
                                 "at 1s throttle-acquisition 0 8\n"
                                 "at 2s preempt-site 0 1.0\n");
  const SimTime armed_at = injector->origin();
  sim_.RunUntil(sim_.now() + 5 * kSecond);
  EXPECT_EQ(grid.running_nodes(), 0);
  EXPECT_EQ(grid.acquisition_frozen_until(0), armed_at + kSecond + 10 * kMinute);
  EXPECT_DOUBLE_EQ(grid.acquisition_delay_factor(0), 8.0);
  // Nothing comes back while the site is frozen...
  sim_.RunUntil(armed_at + 9 * kMinute);
  EXPECT_EQ(grid.running_nodes(), 0);
  // ...but replacements do come back after the freeze lifts (throttled).
  sim_.RunUntil(armed_at + 6 * kHour);
  EXPECT_EQ(grid.running_nodes(), 10);
}

TEST_F(InjectorTest, PartitionHealsAfterDuration) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  grid.AddSite(QuietSite("B", "b.edu"));
  SpinUp(grid, 10);
  const auto injector = Armed(grid, "at 1s partition 0 1 30s\n");
  const net::SiteId a = grid.net_site(0);
  const net::SiteId b = grid.net_site(1);
  EXPECT_FALSE(net_.SitesPartitioned(a, b));
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  EXPECT_TRUE(net_.SitesPartitioned(a, b));
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_FALSE(net_.SitesPartitioned(a, b));
  EXPECT_EQ(injector->injected(), 1u);
}

TEST_F(InjectorTest, DiskFaultsHitEveryNodeAtSite) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  SpinUp(grid, 4);
  const auto injector = Armed(grid,
                                 "at 1s shrink-disks all 0.5\n"
                                 "at 2s fill-disks all 0.9\n");
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  EXPECT_EQ(injector->injected(), 2u);
  for (grid::GridNodeId id = 0; id < grid.total_leases(); ++id) {
    const grid::GridNode* node = grid.node(id);
    if (!node->running()) continue;
    const storage::Disk& disk = node->disk();
    EXPECT_GE(static_cast<double>(disk.used()),
              0.9 * static_cast<double>(disk.capacity()));
  }
}

TEST_F(InjectorTest, ActionsAgainstAbsentLayersAreSkipped) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  SpinUp(grid, 2);
  // No namenode/jobtracker targets, and site 7 does not exist.
  const auto injector = Armed(grid,
                                 "at 1s namenode-blackout 30s\n"
                                 "at 1s jobtracker-blackout 30s\n"
                                 "at 1s preempt-nodes 7 1\n");
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(injector->injected(), 0u);
  EXPECT_EQ(injector->skipped(), 3u);
}

// slow-node / stall-disk resolve NODE against the leases running when the
// action fires: after the oldest lease is preempted, index 0 names the
// next running lease instead of the dead one, and indices wrap.
TEST_F(InjectorTest, NodeFaultsLandOnTheNthRunningLease) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  std::vector<std::pair<grid::GridNodeId, double>> slowed;
  grid.set_on_node_slow([&](grid::GridNode& node, double factor) {
    slowed.emplace_back(node.id(), factor);
  });
  SpinUp(grid, 4);
  const auto injector = Armed(grid,
                                 "at 1s preempt-nodes 0 1\n"
                                 "at 2s slow-node 0 4 30s\n"
                                 "at 2s stall-disk 14 1m\n");
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  EXPECT_FALSE(grid.node(0)->running());
  EXPECT_EQ(injector->injected(), 3u);
  EXPECT_EQ(injector->skipped(), 0u);
  // Leases 1-3 run (a replacement, if one started, has the highest id):
  // index 0 is lease 1, and index 14 wraps to lease 3 out of three or
  // four running leases.
  ASSERT_EQ(slowed.size(), 1u);
  EXPECT_EQ(slowed[0], std::make_pair(grid::GridNodeId{1}, 4.0));
  EXPECT_GT(grid.node(3)->disk().stalled_until(), sim_.now());
  EXPECT_EQ(grid.node(1)->disk().stalled_until(), 0);
  // The restore goes to the lease the action resolved.
  sim_.RunUntil(sim_.now() + kMinute);
  ASSERT_EQ(slowed.size(), 2u);
  EXPECT_EQ(slowed[1], std::make_pair(grid::GridNodeId{1}, 1.0));
}

// The harness's star fabric has no racks and no fabric links: the rack
// and fabric kinds reach no target there, so they count as skipped.
TEST_F(InjectorTest, RackAndFabricFaultsWithoutAFabricAreSkipped) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  SpinUp(grid, 2);
  const auto injector = Armed(grid,
                                 "at 1s fail-tor 0 0 30s\n"
                                 "at 1s partition-rack all 0 30s\n"
                                 "at 1s degrade-fabric all 0.5 30s\n");
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(injector->injected(), 0u);
  EXPECT_EQ(injector->skipped(), 3u);
}

TEST_F(InjectorTest, DisarmCancelsPendingInjections) {
  grid::Grid grid = MakeGrid();
  grid.AddSite(QuietSite("A", "a.edu"));
  SpinUp(grid, 5);
  const auto base = grid.preemptions();
  const auto injector = Armed(grid, "at 30s preempt-site 0 1.0\n");
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  injector->Disarm();
  EXPECT_FALSE(injector->armed());
  sim_.RunUntil(sim_.now() + 5 * kMinute);
  EXPECT_EQ(grid.preemptions(), base);
  EXPECT_EQ(injector->injected(), 0u);
  EXPECT_EQ(grid.running_nodes(), 5);
}

}  // namespace
}  // namespace hogsim::fault
