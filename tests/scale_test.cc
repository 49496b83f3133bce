// Scale-path regression tests: the deadline-heap expiry monitor at 10k
// trackers, and byte-identical BENCH_scale output across thread counts.
#include <gtest/gtest.h>

#include <string>

#include "src/exp/experiments.h"
#include "src/exp/sweep.h"
#include "tests/test_cluster.h"

namespace hogsim {
namespace {

// The jobtracker's lost-tracker monitor must detect expiries in O(due)
// per tick, not O(cluster): with 10k registered trackers heartbeating,
// a killed cohort has to be declared lost within one expiry window plus
// one monitor period — and the whole run has to stay cheap enough for
// tier 1, which an O(cluster) scan per tick would not.
TEST(Scale, TenThousandTrackerExpiryLatency) {
  constexpr int kTrackers = 10000;
  constexpr int kKilled = 64;

  mr::MrConfig mr_config;
  mr_config.tracker_expiry = 30 * kSecond;  // HOG's aggressive expiry
  // Tasktrackers alone, on the master's site: no datanode heartbeats.
  TestCluster cluster(
      {.master_uplink = Gbps(100),
       .topology = hdfs::FlatTopology(),
       .placement = hdfs::MakeDefaultPlacement,
       .mr = mr_config,
       .disk = 1 * kGiB,
       .disk_rate = MiBps(60),
       .map_slots = 1},
      [](TestCluster& c) {
        for (int i = 0; i < kTrackers; ++i) {
          const std::string host = "w" + std::to_string(i) + ".cluster.local";
          c.AddWorker(c.master_site(), host, /*datanode=*/false);
        }
      });
  sim::Simulation& sim = cluster.sim();
  mr::JobTracker& jt = cluster.jt();

  sim.RunUntil(10 * kSecond);
  ASSERT_EQ(jt.tracker_count(), static_cast<std::size_t>(kTrackers));
  ASSERT_EQ(jt.trackers_declared_lost(), 0u);

  // Kill a cohort spread across the id space at t = 10 s.
  for (int k = 0; k < kKilled; ++k) {
    cluster.tracker(static_cast<std::size_t>(k) * (kTrackers / kKilled))
        .Shutdown();
  }

  // Not yet expired: silence must exceed tracker_expiry (30 s).
  sim.RunUntil(38 * kSecond);
  EXPECT_EQ(jt.trackers_declared_lost(), 0u);

  // Expiry latency bound: last heartbeat <= 10 s, expiry 30 s, monitor
  // period = expiry / 6 = 5 s, so every kill is declared by t = 46 s.
  sim.RunUntil(46 * kSecond);
  EXPECT_EQ(jt.trackers_declared_lost(), static_cast<std::uint64_t>(kKilled));
  for (int k = 0; k < kKilled; ++k) {
    const auto id = static_cast<mr::TrackerId>(
        static_cast<std::size_t>(k) * (kTrackers / kKilled));
    EXPECT_FALSE(jt.TrackerAlive(id)) << "tracker " << id;
  }

  // Survivors keep heartbeating and stay alive.
  sim.RunUntil(60 * kSecond);
  EXPECT_EQ(jt.trackers_declared_lost(), static_cast<std::uint64_t>(kKilled));
  EXPECT_TRUE(jt.TrackerAlive(1));
  EXPECT_TRUE(jt.TrackerAlive(kTrackers - 1));
}

// The scale sweep's deterministic rows must be thread-schedule
// independent: the same spec run on 1 thread and on 4 must serialize to
// byte-identical BENCH JSON once the host.* rows are dropped (the rows
// compare_bench checks exactly).
TEST(Scale, BenchScaleJsonByteIdenticalAcrossThreads) {
  const auto render = [](unsigned threads) {
    exp::SweepSpec spec;
    spec.name = "scale";
    spec.seeds = {11, 23};
    spec.configs = 2;
    spec.config_labels = {"120n-2s-6j", "120n-2s-12j"};
    spec.threads = threads;
    const exp::SweepResult result = exp::RunSweep(
        spec, [](std::size_t config, std::uint64_t seed) -> exp::Metrics {
          exp::ScaleConfig scale;
          scale.nodes = 120;
          scale.sites = 2;
          scale.jobs = 6 + static_cast<int>(config) * 6;
          exp::Metrics metrics = exp::RunScaleWorkload(scale, seed);
          std::erase_if(metrics, [](const auto& row) {
            return exp::IsHostMetric(row.first);
          });
          return metrics;
        });
    return exp::ToBenchJson(spec, result);
  };
  const std::string sequential = render(1);
  const std::string parallel = render(4);
  EXPECT_EQ(sequential, parallel);
  EXPECT_NE(sequential.find("\"executed_events\""), std::string::npos);
  EXPECT_EQ(sequential.find("\"host."), std::string::npos);
}

}  // namespace
}  // namespace hogsim
