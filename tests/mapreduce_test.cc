// Unit tests for the MapReduce engine: FIFO scheduling with locality,
// reduce slowstart, speculation, blacklisting, lost-tracker recovery with
// map re-execution, multi-copy execution, and failure-kind accounting.
#include <gtest/gtest.h>

#include <set>

#include "tests/test_cluster.h"

namespace hogsim::mr {
namespace {

TEST(MapReduce, JobLifecycleBasics) {
  TestCluster h = MrCluster(4);
  const JobId job = h.Submit(4 * 64 * kMiB, 2);
  ASSERT_TRUE(h.RunToCompletion());
  const JobInfo& info = h.jt().job(job);
  EXPECT_EQ(info.state, JobState::kSucceeded);
  EXPECT_EQ(info.maps.size(), 4u);
  EXPECT_EQ(info.reduces.size(), 2u);
  EXPECT_GE(info.ResponseTime(), 0);
  for (const TaskInfo& t : info.maps) {
    EXPECT_TRUE(t.complete);
    EXPECT_GE(t.first_launch, info.submitted);
    EXPECT_GE(t.completed_at, t.first_launch);
  }
}

TEST(MapReduce, MapOnlyJobCompletes) {
  TestCluster h = MrCluster(3);
  const JobId job = h.Submit(3 * 64 * kMiB, /*reduces=*/0);
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
  // No reduces -> no HDFS output.
  EXPECT_EQ(h.nn().FileSize(h.jt().job(job).output_file), 0);
}

TEST(MapReduce, FifoOrderAcrossJobs) {
  // Two identical jobs: FIFO must finish the first before the second
  // (with single-slot capacity and no overlap benefit for job 2).
  MrConfig config;
  TestCluster h = MrCluster(2, config, {}, /*map_slots=*/1);
  const JobId first = h.Submit(8 * 64 * kMiB, 1);
  const JobId second = h.Submit(8 * 64 * kMiB, 1);
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_LT(h.jt().job(first).finished, h.jt().job(second).finished);
  // Every map of job 1 launched before any map of job 2 finished waiting:
  // weaker, robust assertion — job 1's last map launch precedes job 2's
  // last map launch.
  SimTime first_last = 0, second_first = kHour * 100;
  for (const auto& t : h.jt().job(first).maps) {
    first_last = std::max(first_last, t.first_launch);
  }
  for (const auto& t : h.jt().job(second).maps) {
    second_first = std::min(second_first, t.first_launch);
  }
  EXPECT_LE(first_last, second_first + kSecond);
}

TEST(MapReduce, DataLocalSchedulingDominatesOnReplicatedInput) {
  hdfs::HdfsConfig hdfs_config;
  hdfs_config.default_replication = 3;
  TestCluster h = MrCluster(6, {}, hdfs_config);
  const JobId job = h.Submit(12 * 64 * kMiB, 2);
  ASSERT_TRUE(h.RunToCompletion());
  const JobInfo& info = h.jt().job(job);
  // All nodes share one rack; with 3 replicas on 6 nodes, most launches
  // should be node-local and none should be classified remote (rack-local
  // at worst).
  EXPECT_GT(info.data_local_maps, 0);
  EXPECT_EQ(info.remote_maps, 0);
}

TEST(MapReduce, ReduceSlowstartHoldsReducesBack) {
  MrConfig config;
  config.reduce_slowstart = 1.0;  // reduces only after ALL maps
  TestCluster h = MrCluster(4, config);
  const JobId job = h.Submit(8 * 64 * kMiB, 4);
  ASSERT_TRUE(h.RunToCompletion());
  const JobInfo& info = h.jt().job(job);
  SimTime last_map_done = 0;
  for (const auto& t : info.maps) {
    last_map_done = std::max(last_map_done, t.completed_at);
  }
  for (const auto& t : info.reduces) {
    EXPECT_GE(t.first_launch, last_map_done);
  }
}

TEST(MapReduce, TrackerLossReExecutesCompletedMaps) {
  MrConfig config;
  config.tracker_expiry = 30 * kSecond;
  config.reduce_slowstart = 1.0;  // keep reduces from consuming outputs early
  hdfs::HdfsConfig hdfs_config;
  hdfs_config.heartbeat_recheck = 30 * kSecond;
  TestCluster h = MrCluster(4, config, hdfs_config);
  const JobId job = h.Submit(12 * 64 * kMiB, 2, {.map_rate_mibps = 4});
  // Let some maps complete, then kill a worker: its completed map outputs
  // are gone and must re-execute (§III.B).
  bool killed = false;
  h.sim().ScheduleAfter(30 * kSecond, [&] {
    killed = true;
    h.KillWorker(0);
  });
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_TRUE(killed);
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
  EXPECT_EQ(h.jt().trackers_declared_lost(), 1u);
  EXPECT_GT(h.jt().maps_reexecuted() + h.jt().attempts_launched(), 8u);
}

TEST(MapReduce, FetchFailureTriggersMapReExecution) {
  MrConfig config;
  config.tracker_expiry = 10 * kMinute;  // slow central detection...
  config.reduce_slowstart = 1.0;
  hdfs::HdfsConfig hdfs_config;
  hdfs_config.default_replication = 3;
  hdfs_config.heartbeat_recheck = 10 * kMinute;
  TestCluster h = MrCluster(6, config, hdfs_config);
  const JobId job = h.Submit(6 * 64 * kMiB, 2, {.map_rate_mibps = 8});
  // Kill a worker right when its maps are done but before reduces fetched
  // everything: the reduce's fetch failure must revive the map without
  // waiting for the 10-minute expiry.
  int maps_done_on_0 = 0;
  h.sim().ScheduleAfter(90 * kSecond, [&] {
    for (const auto& t : h.jt().job(job).maps) {
      if (t.complete && t.completed_on == 0) ++maps_done_on_0;
    }
    if (maps_done_on_0 > 0) h.KillWorker(0);
  });
  ASSERT_TRUE(h.RunToCompletion(2 * kHour));
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
  if (maps_done_on_0 > 0) {
    EXPECT_GE(h.jt().maps_reexecuted(), 1u);
  }
}

TEST(MapReduce, SpeculativeExecutionLaunchesSecondCopy) {
  MrConfig config;
  config.speculative_execution = true;
  // A straggler: one worker with a pathologically slow disk.
  TestCluster h = MrCluster(4, config);
  // Slow down worker 3's disk by replacing... instead: use small input so
  // one map lands per node, then make node 3's map crawl via its disk.
  // Simpler: submit a job whose maps are quick except those reading from a
  // zombie... Instead we directly verify the mechanism: speculation occurs
  // when one attempt runs 4/3 slower than the completed mean.
  const JobId job = h.Submit(8 * 64 * kMiB, 1, {.map_rate_mibps = 30});
  // Stall worker 0 by flooding its disk with a huge background read, so
  // any map attempt there crawls.
  h.sim().ScheduleAfter(2 * kSecond, [&] {
    for (int i = 0; i < 4; ++i) h.disk(0).Read(40 * kGiB, [] {});
  });
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
  EXPECT_GE(h.jt().speculative_attempts(), 1u);
}

TEST(MapReduce, SpeculationDisabledMeansNoExtraCopies) {
  MrConfig config;
  config.speculative_execution = false;
  TestCluster h = MrCluster(4, config);
  const JobId job = h.Submit(8 * 64 * kMiB, 2);
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
  EXPECT_EQ(h.jt().speculative_attempts(), 0u);
  EXPECT_EQ(h.jt().attempts_launched(), 10u);  // 8 maps + 2 reduces exactly
}

TEST(MapReduce, MultiCopyRunsEveryTaskNTimes) {
  MrConfig config;
  config.task_copies = 2;  // §VI extension
  config.speculative_execution = false;
  TestCluster h = MrCluster(6, config);
  const JobId job = h.Submit(6 * 64 * kMiB, 2);
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
  // Every task gets up to 2 attempts; at least the map count must exceed
  // the single-copy baseline (6 + 2 = 8).
  EXPECT_GT(h.jt().attempts_launched(), 8u);
}

TEST(MapReduce, ZombieTrackerGetsBlacklistedPerJob) {
  MrConfig config;
  config.tracker_blacklist_failures = 4;
  config.task_copies = 1;
  TestCluster h = MrCluster(4, config);
  // Zombify worker 0 before submitting: it keeps heartbeating and taking
  // tasks, each failing fast (§IV.D.1's observed behaviour).
  h.tracker(0).EnterZombieMode();
  h.datanode(0).EnterZombieMode();
  const JobId job = h.Submit(8 * 64 * kMiB, 2);
  ASSERT_TRUE(h.RunToCompletion());
  const JobInfo& info = h.jt().job(job);
  EXPECT_EQ(info.state, JobState::kSucceeded);
  EXPECT_TRUE(info.blacklist.contains(0))
      << "the zombie must be blacklisted after repeated failures";
  // Failure kinds recorded: the zombie produced kZombieDir failures.
  EXPECT_GE(info.tracker_failures.at(0), config.tracker_blacklist_failures);
}

TEST(MapReduce, DiskFullFailsMapsWithDiskFullKind) {
  // Tiny disks: map outputs do not fit (intermediate data retention).
  hdfs::HdfsConfig hdfs_config;
  hdfs_config.default_replication = 1;
  MrConfig config;
  config.max_attempts = 2;
  TestCluster h = MrCluster(2, config, hdfs_config, 2, /*disk=*/300 * kMiB);
  // Input fits (2 blocks x 1 replica x 64 MiB), but map outputs
  // (selectivity 1.0) + shuffle spill exhaust the 300 MiB disks quickly
  // across several jobs' retained intermediates.
  const JobId j1 = h.Submit(2 * 64 * kMiB, 1);
  const JobId j2 = h.Submit(2 * 64 * kMiB, 1);
  ASSERT_TRUE(h.RunToCompletion());
  // At least one of the jobs must have hit disk pressure; we only require
  // the engine not to wedge and to surface terminal states.
  const auto s1 = h.jt().job(j1).state;
  const auto s2 = h.jt().job(j2).state;
  EXPECT_NE(s1, JobState::kRunning);
  EXPECT_NE(s2, JobState::kRunning);
}

TEST(MapReduce, JobFailsAfterMaxAttempts) {
  MrConfig config;
  config.max_attempts = 2;
  config.zombie_fail_delay = 100 * kMillisecond;
  TestCluster h = MrCluster(2, config);
  // Input goes in first (zombie disks cannot receive writes), then all
  // workers zombify: every attempt fails everywhere and the job fails via
  // attempt exhaustion.
  const JobId job = h.Submit(2 * 64 * kMiB, 1);
  for (int i = 0; i < 2; ++i) {
    h.tracker(static_cast<std::size_t>(i)).EnterZombieMode();
  }
  ASSERT_TRUE(h.RunToCompletion(kHour));
  EXPECT_EQ(h.jt().job(job).state, JobState::kFailed);
}

TEST(MapReduce, IntermediateBytesTrackRetention) {
  MrConfig config;
  config.reduce_slowstart = 1.0;
  TestCluster h = MrCluster(2, config);
  const JobId job = h.Submit(4 * 64 * kMiB, 1, {.map_rate_mibps = 8});
  // Mid-flight: after maps complete but before the job finishes, trackers
  // hold intermediate output.
  bool saw_intermediate = false;
  for (int i = 0; i < 7200 && !h.jt().AllJobsDone(); ++i) {
    h.sim().RunUntil(h.sim().now() + kSecond);
    Bytes held = 0;
    for (std::size_t t = 0; t < 2; ++t) {
      held += h.tracker(t).intermediate_bytes();
    }
    if (held > 0) saw_intermediate = true;
  }
  ASSERT_TRUE(h.jt().AllJobsDone());
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
  EXPECT_TRUE(saw_intermediate);
  // After completion, purged everywhere.
  h.sim().RunUntil(h.sim().now() + kMinute);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(h.tracker(t).intermediate_bytes(), 0);
  }
}

TEST(MapReduce, OutputReplicationFollowsJobSpec) {
  hdfs::HdfsConfig hdfs_config;
  hdfs_config.default_replication = 2;
  TestCluster h = MrCluster(5, {}, hdfs_config);
  JobSpec spec;
  spec.name = "rep4";
  spec.input = h.nn().ImportFile("in", 2 * 64 * kMiB);
  spec.num_reduces = 1;
  spec.output_replication = 4;
  const JobId job = h.jt().SubmitJob(spec);
  ASSERT_TRUE(h.RunToCompletion());
  const auto& info = h.jt().job(job);
  ASSERT_EQ(info.state, JobState::kSucceeded);
  for (const auto& loc : h.nn().GetFileBlocks(info.output_file)) {
    EXPECT_EQ(loc.datanodes.size(), 4u);
  }
}

TEST(MapReduce, ReportsByteConservationThroughShuffle) {
  TestCluster h = MrCluster(4);
  const JobId job = h.Submit(6 * 64 * kMiB, 3);
  ASSERT_TRUE(h.RunToCompletion());
  const JobInfo& info = h.jt().job(job);
  ASSERT_EQ(info.state, JobState::kSucceeded);
  Bytes map_output = 0;
  for (const auto& t : info.maps) map_output += t.output_bytes;
  EXPECT_EQ(map_output, 6 * 64 * kMiB);  // selectivity 1.0
  // Reduce output = 0.4 x shuffled (±rounding per reduce partition).
  const Bytes out = h.nn().FileSize(info.output_file);
  EXPECT_NEAR(static_cast<double>(out), 0.4 * 6 * 64 * kMiB,
              static_cast<double>(kMiB));
}

// Parameterized churn sweep: random worker kills during a job; the job
// must always finish (enough replicas + re-execution machinery).
TEST(MapReduce, JobTrackerBlackoutQueuesReportsAndRecovers) {
  MrConfig config;
  config.tracker_expiry = 30 * kSecond;
  TestCluster h = MrCluster(4, config);
  const JobId job = h.Submit(8 * 64 * kMiB, 2, {.map_rate_mibps = 8});
  // A 90 s blackout, three times the tracker expiry: mid-blackout
  // heartbeats earn no liveness credit and task reports queue
  // client-side; the restart re-admits every still-alive tracker and
  // replays the queue, so nobody is declared lost and no map re-executes
  // for a master-side reason.
  h.sim().ScheduleAfter(60 * kSecond, [&] { h.jt().Crash(); });
  h.sim().ScheduleAfter(100 * kSecond,
                        [&] { EXPECT_FALSE(h.jt().available()); });
  h.sim().ScheduleAfter(150 * kSecond, [&] { h.jt().Restart(); });
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_TRUE(h.jt().available());
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
  EXPECT_EQ(h.jt().trackers_declared_lost(), 0u);
}

TEST(MapReduce, JobTrackerCrashAndRestartAreIdempotent) {
  TestCluster h = MrCluster(2);
  const JobId job = h.Submit(2 * 64 * kMiB, 1);
  h.sim().ScheduleAfter(30 * kSecond, [&] {
    h.jt().Crash();
    h.jt().Crash();  // double crash: no-op
    h.jt().Restart();
    h.jt().Restart();  // double restart: no-op
  });
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
}

class ChurnSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChurnSweep, JobSurvivesRandomKills) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  MrConfig config;
  config.tracker_expiry = 30 * kSecond;
  hdfs::HdfsConfig hdfs_config;
  hdfs_config.default_replication = 4;
  hdfs_config.heartbeat_recheck = 30 * kSecond;
  TestCluster h = MrCluster(8, config, hdfs_config);
  const JobId job = h.Submit(10 * 64 * kMiB, 4, {.map_rate_mibps = 8,
                                                 .reduce_rate_mibps = 8});
  // Kill 2 random distinct workers at random times in the first 3 minutes.
  std::set<std::size_t> victims;
  while (victims.size() < 2) {
    victims.insert(static_cast<std::size_t>(rng.UniformInt(0, 7)));
  }
  for (std::size_t v : victims) {
    h.sim().ScheduleAfter(FromSeconds(rng.Uniform(20, 180)),
                          [&h, v] { h.KillWorker(v); });
  }
  ASSERT_TRUE(h.RunToCompletion(4 * kHour));
  EXPECT_EQ(h.jt().job(job).state, JobState::kSucceeded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace hogsim::mr
