// Tests for the extension features: delay scheduling, job counters, and the
// §VI security model.
#include <gtest/gtest.h>

#include "tests/test_cluster.h"

namespace hogsim {
namespace {

// `racks` sites of `per_rack` workers each: locality only matters with
// racks (mapreduce_test.cc's cluster is a single rack).
TestCluster RackedCluster(int racks, int per_rack, mr::MrConfig mr_config,
                          hdfs::HdfsConfig hdfs_config,
                          net::FlowNetworkConfig net_config = {}) {
  return TestCluster(
      {.seed = 17,
       .hdfs = hdfs_config,
       .mr = mr_config,
       .net = net_config,
       .disk = 50 * kGiB},
      [&](TestCluster& c) {
        c.AddSites(racks, per_rack, Gbps(2), GridHost("w", "rack"));
      });
}

hdfs::HdfsConfig ScarceReplication() {
  hdfs::HdfsConfig config;
  config.default_replication = 1;  // locality is scarce: delay sched. bites
  return config;
}

TEST(DelayScheduling, ImprovesMapLocality) {
  auto run = [](SimDuration wait) {
    mr::MrConfig mr_config;
    mr_config.locality_wait_node = wait;
    mr_config.locality_wait_rack = wait;
    TestCluster h = RackedCluster(3, 4, mr_config, ScarceReplication());
    const auto job = h.Submit(24 * 64 * kMiB, 2);
    EXPECT_TRUE(h.RunToCompletion());
    const auto& info = h.jt().job(job);
    EXPECT_EQ(info.state, mr::JobState::kSucceeded);
    return info;
  };
  const auto fifo = run(0);
  const auto delayed = run(10 * kSecond);
  // With single-replica input on 12 nodes, plain FIFO launches many maps
  // off-node; delay scheduling waits briefly and recovers locality.
  EXPECT_GT(delayed.data_local_maps, fifo.data_local_maps);
  EXPECT_LT(delayed.remote_maps + delayed.rack_local_maps,
            fifo.remote_maps + fifo.rack_local_maps);
}

TEST(DelayScheduling, WaitExpiryPreventsStarvation) {
  mr::MrConfig mr_config;
  mr_config.locality_wait_node = 5 * kSecond;
  mr_config.locality_wait_rack = 5 * kSecond;
  TestCluster h = RackedCluster(1, 2, mr_config, ScarceReplication());
  // 2 nodes, input on at most 2 nodes; job must still complete even if no
  // offer is ever node-local for some maps.
  const auto job = h.Submit(6 * 64 * kMiB, 1);
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_EQ(h.jt().job(job).state, mr::JobState::kSucceeded);
}

TEST(Counters, ConserveBytesThroughThePipeline) {
  TestCluster h = RackedCluster(2, 3, {}, {});
  const auto job = h.Submit(6 * 64 * kMiB, 3);
  ASSERT_TRUE(h.RunToCompletion());
  const mr::JobCounters& c = h.jt().job(job).counters;
  EXPECT_EQ(c.map_input_bytes, 6 * 64 * kMiB);
  EXPECT_EQ(c.local_input_bytes + c.remote_input_bytes, c.map_input_bytes);
  EXPECT_EQ(c.map_output_bytes, 6 * 64 * kMiB);  // selectivity 1.0
  // Shuffle moves every map output partition exactly once (integer
  // division truncates per partition).
  EXPECT_NEAR(static_cast<double>(c.shuffle_bytes),
              static_cast<double>(c.map_output_bytes), 64.0 * 3);
  EXPECT_NEAR(static_cast<double>(c.reduce_output_bytes),
              0.4 * static_cast<double>(c.shuffle_bytes),
              static_cast<double>(kMiB));
  // HDFS agrees with the reduce-side counter.
  EXPECT_EQ(h.nn().FileSize(h.jt().job(job).output_file),
            c.reduce_output_bytes);
}

TEST(Counters, LocalityCountersMatchSchedulerView) {
  hdfs::HdfsConfig hdfs_config;
  hdfs_config.default_replication = 3;
  TestCluster h = RackedCluster(2, 4, {}, hdfs_config);
  const auto job = h.Submit(8 * 64 * kMiB, 2);
  ASSERT_TRUE(h.RunToCompletion());
  const auto& info = h.jt().job(job);
  // Maps launched node-local read locally (modulo re-resolution).
  if (info.remote_maps == 0 && info.rack_local_maps == 0) {
    EXPECT_EQ(info.counters.remote_input_bytes, 0);
  }
}

TEST(Security, CryptoOverheadSlowsTransfersAndRpc) {
  net::FlowNetworkConfig plain;
  net::FlowNetworkConfig pki;
  pki.crypto_latency = 5 * kMillisecond;
  pki.crypto_byte_overhead = 0.15;

  auto time_job = [](net::FlowNetworkConfig net_config) {
    TestCluster h = RackedCluster(2, 3, {}, {}, net_config);
    const auto job = h.Submit(6 * 64 * kMiB, 2);
    EXPECT_TRUE(h.RunToCompletion());
    EXPECT_EQ(h.jt().job(job).state, mr::JobState::kSucceeded);
    return ToSeconds(h.jt().job(job).ResponseTime());
  };
  const double plain_s = time_job(plain);
  const double pki_s = time_job(pki);
  EXPECT_GT(pki_s, plain_s) << "encryption must cost time";
  EXPECT_LT(pki_s, plain_s * 2.0) << "...but not absurdly much";
}

TEST(Security, LatencyAccountsCryptoHandshake) {
  sim::Simulation sim;
  net::FlowNetworkConfig config;
  config.crypto_latency = 7 * kMillisecond;
  net::FlowNetwork net(sim, config);
  const auto s1 = net.AddSite(Gbps(1));
  const auto s2 = net.AddSite(Gbps(1));
  const auto a = net.AddNode(s1, Gbps(1));
  const auto b = net.AddNode(s1, Gbps(1));
  const auto c = net.AddNode(s2, Gbps(1));
  EXPECT_EQ(net.Latency(a, b), config.lan_latency + 7 * kMillisecond);
  EXPECT_EQ(net.Latency(a, c), config.wan_latency + 7 * kMillisecond);
  EXPECT_EQ(net.Latency(a, a), 0);  // loopback needs no TLS
}

}  // namespace
}  // namespace hogsim
