// Tests for the self-healing stack: the prioritized re-replication queue,
// zombie-aware missing-block accounting, DfsClient write-pipeline
// recovery, blacklist forgiveness on tracker reincarnation, deterministic
// jobtracker blackout recovery, the cross-layer invariant auditor, and the
// seeded random chaos scenarios.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/check/auditor.h"
#include "src/exp/paper_runs.h"
#include "src/fault/random_scenario.h"
#include "src/fault/scenario.h"
#include "src/hdfs/replication_queue.h"
#include "src/hog/hog_cluster.h"
#include "src/workload/runner.h"
#include "tests/test_cluster.h"

namespace hogsim {
namespace {

// ---- ReplicationQueue ------------------------------------------------------

TEST(ReplicationQueue, LevelForRanksByDanger) {
  using Q = hdfs::ReplicationQueue;
  EXPECT_EQ(Q::LevelFor(0, 10), Q::kCritical);
  EXPECT_EQ(Q::LevelFor(1, 10), Q::kCritical);
  EXPECT_EQ(Q::LevelFor(1, 3), Q::kCritical);
  EXPECT_EQ(Q::LevelFor(2, 10), Q::kBadly);
  EXPECT_EQ(Q::LevelFor(5, 10), Q::kBadly);  // half the redundancy gone
  EXPECT_EQ(Q::LevelFor(6, 10), Q::kNormal);
  EXPECT_EQ(Q::LevelFor(2, 3), Q::kNormal);  // 2 of 3 is still a majority
  EXPECT_EQ(Q::LevelFor(9, 10), Q::kNormal);
}

TEST(ReplicationQueue, InsertMoveEraseTracksLevels) {
  hdfs::ReplicationQueue q;
  q.Insert(7, hdfs::ReplicationQueue::kNormal);
  EXPECT_TRUE(q.contains(7));
  EXPECT_EQ(q.level_of(7), hdfs::ReplicationQueue::kNormal);
  EXPECT_EQ(q.size(), 1u);
  // A further failure escalates the block: it must move, not duplicate.
  q.Insert(7, hdfs::ReplicationQueue::kCritical);
  EXPECT_EQ(q.level_of(7), hdfs::ReplicationQueue::kCritical);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.level_size(hdfs::ReplicationQueue::kNormal), 0u);
  q.Erase(7);
  EXPECT_FALSE(q.contains(7));
  EXPECT_EQ(q.level_of(7), -1);
  EXPECT_TRUE(q.empty());
  q.Erase(7);  // erase of an absent block is a no-op
  EXPECT_TRUE(q.empty());
}

TEST(ReplicationQueue, CollectDrainsMostEndangeredFirst) {
  hdfs::ReplicationQueue q;
  q.Insert(30, hdfs::ReplicationQueue::kNormal);
  q.Insert(20, hdfs::ReplicationQueue::kBadly);
  q.Insert(11, hdfs::ReplicationQueue::kCritical);
  q.Insert(10, hdfs::ReplicationQueue::kCritical);
  q.Insert(21, hdfs::ReplicationQueue::kBadly);
  const std::vector<hdfs::BlockId> all = q.Collect(10);
  EXPECT_EQ(all, (std::vector<hdfs::BlockId>{10, 11, 20, 21, 30}));
  // The scan budget is spent on the critical bucket before any other.
  const std::vector<hdfs::BlockId> three = q.Collect(3);
  EXPECT_EQ(three, (std::vector<hdfs::BlockId>{10, 11, 20}));
}

TEST(ReplicationQueue, WorseningDeficitReordersWithinLevel) {
  hdfs::ReplicationQueue q;
  q.Insert(10, hdfs::ReplicationQueue::kNormal, 2);
  q.Insert(20, hdfs::ReplicationQueue::kNormal, 2);
  // Equal deficits tie-break by BlockId.
  EXPECT_EQ(q.Collect(2), (std::vector<hdfs::BlockId>{10, 20}));
  // Block 20 loses two more replicas while queued: re-inserting with the
  // worse deficit must move it ahead of the stale same-level entry, not
  // leave it waiting in BlockId order.
  q.Insert(20, hdfs::ReplicationQueue::kNormal, 4);
  EXPECT_EQ(q.deficit_of(20), 4);
  EXPECT_EQ(q.Collect(2), (std::vector<hdfs::BlockId>{20, 10}));
  EXPECT_EQ(q.size(), 2u);
}

TEST(ReplicationQueue, SpreadAwareLevelEscalatesHuddledSurvivors) {
  using Q = hdfs::ReplicationQueue;
  // Plenty of copies, all on one site: one batch preemption from loss.
  EXPECT_EQ(Q::LevelFor(6, 10, 1), Q::kCritical);
  // Two sites lifts a normal-ranked block to badly endangered...
  EXPECT_EQ(Q::LevelFor(6, 10, 2), Q::kBadly);
  // ...but never demotes one already ranked worse.
  EXPECT_EQ(Q::LevelFor(2, 10, 2), Q::kBadly);
  EXPECT_EQ(Q::LevelFor(1, 10, 1), Q::kCritical);
  // Three or more sites: the replica count alone ranks the block.
  EXPECT_EQ(Q::LevelFor(6, 10, 3), Q::kNormal);
  EXPECT_EQ(Q::LevelFor(5, 10, 3), Q::kBadly);
}

// ---- Zombie-aware missing-block accounting ---------------------------------

TEST(ZombieAccounting, ZombifiedSoleHolderCountsAsMissing) {
  hdfs::HdfsConfig config;
  config.default_replication = 1;
  config.disk_check_interval = 0;  // no probe: the zombie lingers
  TestCluster h = HdfsCluster(1, 2, config);
  const hdfs::FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  ASSERT_EQ(loc.datanodes.size(), 1u);
  EXPECT_EQ(h.nn().missing_blocks(), 0u);
  // The sole holder's disk dies but its process keeps heartbeating: the
  // namenode still believes in the replica, yet nothing can serve it.
  h.datanode(loc.datanodes[0]).EnterZombieMode();
  EXPECT_EQ(h.nn().missing_blocks(), 1u)
      << "a zombie copy must not mask a missing block";
  // The belief itself is intact — the holder set still lists the zombie.
  EXPECT_EQ(h.nn().BlockHolders(loc.block).size(), 1u);
}

// ---- Write-pipeline recovery -----------------------------------------------

TEST(PipelineRecovery, ReplacesDeadMemberAndCommitsFullWidth) {
  hdfs::HdfsConfig config;
  config.default_replication = 5;
  config.heartbeat_recheck = 30 * kSecond;
  // 8 nodes: the dead member also feeds its downstream hop, so BOTH need
  // replacement targets outside the original pipeline.
  TestCluster h = HdfsCluster(4, 2, config);
  const hdfs::FileId file = h.nn().CreateFile("out");
  bool done = false, ok = false;
  // Write from datanode 0's node: replica 0 is writer-local, so killing
  // node 0 mid-write is guaranteed to hit a pipeline member.
  h.client().WriteBlock(h.nn().datanode(0).net_node, file, 256 * kMiB,
                        [&](bool r) {
                          done = true;
                          ok = r;
                        });
  h.sim().ScheduleAfter(kSecond, [&] {
    h.datanode(0).Shutdown();
    h.net().FailFlowsAtNode(h.nn().datanode(0).net_node);
  });
  // Stop the moment the commit lands: the replication monitor must not get
  // a chance to paper over a thin commit afterwards.
  while (!done && h.sim().now() < 3 * kMinute) {
    h.sim().RunUntil(h.sim().now() + 100 * kMillisecond);
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(ok);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  EXPECT_EQ(loc.datanodes.size(), 5u)
      << "recovery must replace the dead member, not shrink the commit";
  EXPECT_EQ(std::find(loc.datanodes.begin(), loc.datanodes.end(),
                      hdfs::DatanodeId{0}),
            loc.datanodes.end());
  EXPECT_GE(
      h.sim().obs().metrics().GetCounter("hdfs.pipeline.recovered").value(),
      1u);
}

TEST(PipelineRecovery, CommitsWithSurvivorsWhenNoReplacementExists) {
  hdfs::HdfsConfig config;
  config.default_replication = 2;
  config.heartbeat_recheck = 30 * kSecond;
  TestCluster h = HdfsCluster(1, 2, config);  // both in the pipeline, no spare
  const hdfs::FileId file = h.nn().CreateFile("out");
  bool done = false, ok = false;
  h.client().WriteBlock(h.nn().master_node(), file, 256 * kMiB, [&](bool r) {
    done = true;
    ok = r;
  });
  h.sim().ScheduleAfter(kSecond, [&] {
    h.datanode(1).Shutdown();
    h.net().FailFlowsAtNode(h.nn().datanode(1).net_node);
  });
  while (!done && h.sim().now() < 3 * kMinute) {
    h.sim().RunUntil(h.sim().now() + 100 * kMillisecond);
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(ok) << "no replacement available: commit the surviving member";
  EXPECT_EQ(h.nn().GetFileBlocks(file)[0].datanodes.size(), 1u);
  EXPECT_GE(h.sim()
                .obs()
                .metrics()
                .GetCounter("hdfs.pipeline.recovery_failed")
                .value(),
            1u);
}

// ---- Blacklist forgiveness --------------------------------------------------

TEST(Blacklist, ShrinksWhenTrackerReincarnates) {
  mr::MrConfig config;
  config.tracker_blacklist_failures = 4;
  config.task_copies = 1;
  config.tracker_expiry = 30 * kSecond;
  // The zombie fails attempts fast; give tasks headroom to outlive the
  // blacklisting threshold instead of exhausting their own attempt budget.
  config.max_attempts = 12;
  TestCluster h = MrCluster(4, config);
  h.tracker(0).EnterZombieMode();
  h.datanode(0).EnterZombieMode();
  // A long job keeps the blacklist live while forgiveness is exercised.
  const mr::JobId job = h.Submit(
      32 * 64 * kMiB, 2, {.map_rate_mibps = 1, .reduce_rate_mibps = 1});
  SimTime deadline = h.sim().now() + kHour;
  while (!h.jt().job(job).blacklist.contains(0) && h.sim().now() < deadline) {
    h.sim().RunUntil(h.sim().now() + kSecond);
  }
  ASSERT_TRUE(h.jt().job(job).blacklist.contains(0));
  EXPECT_EQ(h.jt().blacklisted_entries(), 1);
  EXPECT_EQ(
      h.sim().obs().metrics().GetGauge("mr.blacklist.active").value(), 1.0);

  // The zombie process finally dies; expiry declares the tracker lost and
  // prunes its blacklist entries on the spot — the process those entries
  // described no longer exists.
  h.tracker(0).Shutdown();
  h.sim().RunUntil(h.sim().now() + 2 * kMinute);
  ASSERT_EQ(h.jt().job(job).state, mr::JobState::kRunning);
  EXPECT_FALSE(h.jt().job(job).blacklist.contains(0));
  EXPECT_EQ(h.jt().blacklisted_entries(), 0);
  EXPECT_EQ(
      h.sim().obs().metrics().GetGauge("mr.blacklist.active").value(), 0.0);

  // The reincarnated glidein's first heartbeat starts from a clean slate.
  h.jt().Heartbeat(0);
  EXPECT_FALSE(h.jt().job(job).blacklist.contains(0));
  EXPECT_EQ(h.jt().blacklisted_entries(), 0);
}

TEST(Blacklist, PrunedWhenBlacklistedTrackerDiesDuringBlackout) {
  mr::MrConfig config;
  config.tracker_blacklist_failures = 4;
  config.tracker_expiry = 30 * kSecond;
  config.max_attempts = 12;
  TestCluster h = MrCluster(4, config);
  h.tracker(0).EnterZombieMode();
  h.datanode(0).EnterZombieMode();
  const mr::JobId job = h.Submit(
      32 * 64 * kMiB, 2, {.map_rate_mibps = 1, .reduce_rate_mibps = 1});
  SimTime deadline = h.sim().now() + kHour;
  while (!h.jt().job(job).blacklist.contains(0) && h.sim().now() < deadline) {
    h.sim().RunUntil(h.sim().now() + kSecond);
  }
  ASSERT_TRUE(h.jt().job(job).blacklist.contains(0));
  EXPECT_EQ(h.jt().blacklisted_entries(), 1);

  // The master blacks out, and while it is down the blacklisted zombie
  // dies for good. Nobody watches it die (the lost-tracker monitor is
  // stopped), so the gauge still counts it...
  h.jt().Crash();
  h.tracker(0).Shutdown();
  h.sim().RunUntil(h.sim().now() + 2 * kMinute);
  EXPECT_EQ(h.jt().blacklisted_entries(), 1);

  // ...until Restart()'s sweep declares it lost, which must prune its
  // entries and decrement mr.blacklist.active — previously the gauge kept
  // counting the dead process until the job finished.
  h.jt().Restart();
  ASSERT_EQ(h.jt().job(job).state, mr::JobState::kRunning);
  EXPECT_FALSE(h.jt().job(job).blacklist.contains(0));
  EXPECT_EQ(h.jt().blacklisted_entries(), 0);
  EXPECT_EQ(
      h.sim().obs().metrics().GetGauge("mr.blacklist.active").value(), 0.0);

  // The auditor's mr.blacklist_gauge / mr.blacklist_live invariants agree.
  check::Auditor auditor(h.sim(), nullptr, &h.jt(), nullptr);
  EXPECT_EQ(auditor.AuditNow(), 0u);
}

// ---- Deterministic jobtracker blackout recovery ----------------------------

TEST(JobTrackerBlackout, RecoveryIsDeterministic) {
  struct Outcome {
    SimTime finished;
    std::uint64_t attempts;
    std::uint64_t reexecuted;
    mr::JobState s1, s2;
  };
  const auto run = [] {
    mr::MrConfig config;
    config.tracker_expiry = 30 * kSecond;
    TestCluster h = MrCluster(5, config);
    const TestJob job{.map_rate_mibps = 4, .reduce_rate_mibps = 4};
    const mr::JobId j1 = h.Submit(8 * 64 * kMiB, 2, job);
    const mr::JobId j2 = h.Submit(8 * 64 * kMiB, 2, job);
    h.sim().ScheduleAfter(40 * kSecond, [&h] { h.jt().Crash(); });
    h.sim().ScheduleAfter(100 * kSecond, [&h] { h.jt().Restart(); });
    EXPECT_TRUE(h.RunToCompletion());
    return Outcome{h.sim().now(), h.jt().attempts_launched(),
                   h.jt().maps_reexecuted(), h.jt().job(j1).state,
                   h.jt().job(j2).state};
  };
  const Outcome a = run();
  const Outcome b = run();
  EXPECT_EQ(a.s1, mr::JobState::kSucceeded);
  EXPECT_EQ(a.s2, mr::JobState::kSucceeded);
  EXPECT_EQ(a.finished, b.finished)
      << "blackout re-admission must be schedule-deterministic";
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.reexecuted, b.reexecuted);
}

// The jobtracker twin of the namenode's restart re-admission test
// (namenode_failover_test.cc): a falsely declared tracker re-admitted by
// the restart sweep is counted again by the gauge and the trace track.
TEST(JobTrackerBlackout, RestartReadmissionKeepsTheLiveGaugeInStep) {
  mr::MrConfig config;
  config.tracker_expiry = 30 * kSecond;
  TestCluster h = MrCluster(3, config);
  h.sim().obs().tracer().set_enabled(true);
  h.tracker(0).set_heartbeat_jitter(30 * kMinute);
  ASSERT_TRUE(workload::RunSimUntil(
      h.sim(), [&] { return h.jt().trackers_declared_lost() == 1; }, kHour));
  ASSERT_EQ(h.jt().live_trackers(), 2);
  h.tracker(0).set_heartbeat_jitter(0);
  h.jt().Crash();
  h.sim().RunUntil(h.sim().now() + kSecond);
  h.jt().Restart();
  h.sim().RunUntil(h.sim().now() + 10 * kMinute);
  EXPECT_EQ(h.jt().trackers_declared_lost(), 1u);
  EXPECT_EQ(h.jt().live_trackers(), 3);
  EXPECT_EQ(h.sim().obs().metrics().GetGauge("mr.trackers.live").value(), 3.0);
  double last_sample = -1;
  for (const obs::TraceEvent& e : h.sim().obs().tracer().Events()) {
    if (e.kind == obs::TraceEvent::Kind::kCounter &&
        std::string_view(e.name) == "trackers.live") {
      last_sample = e.value;
    }
  }
  EXPECT_EQ(last_sample, 3.0);
  check::Auditor auditor(h.sim(), &h.nn(), &h.jt(), nullptr);
  EXPECT_EQ(auditor.AuditNow(), 0u);
}

// ---- Invariant auditor ------------------------------------------------------

TEST(Auditor, HealthyRunStaysViolationFree) {
  TestCluster h = MrCluster(4);
  check::Auditor::Options options;
  options.period = 5 * kSecond;
  check::Auditor auditor(h.sim(), &h.nn(), &h.jt(), nullptr, options);
  auditor.Start();
  const mr::JobId job = h.Submit(4 * 64 * kMiB, 2);
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_EQ(h.jt().job(job).state, mr::JobState::kSucceeded);
  auditor.AuditNow();
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.audits_run(), 2u);
  EXPECT_TRUE(auditor.records().empty());
}

TEST(Auditor, CatchesSeededDiskInconsistency) {
  hdfs::HdfsConfig config;  // stock: replication 3
  TestCluster h = HdfsCluster(2, 3, config);
  const hdfs::FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  check::Auditor auditor(h.sim(), &h.nn(), nullptr, nullptr);
  EXPECT_EQ(auditor.AuditNow(), 0u);
  // Corrupt a mirror: the holder's disk silently drops the replica's bytes
  // while the namenode still believes in the copy.
  h.datanode(loc.datanodes[0]).disk().Release(64 * kMiB);
  EXPECT_GE(auditor.AuditNow(), 1u);
  ASSERT_FALSE(auditor.records().empty());
  EXPECT_EQ(std::string(auditor.records()[0].invariant),
            "hdfs.disk_accounting");
  EXPECT_GE(
      h.sim().obs().metrics().GetCounter("check.violations").value(), 1u);
}

TEST(Auditor, CatchesSeededLiveGaugeDrift) {
  TestCluster h = MrCluster(3);
  check::Auditor auditor(h.sim(), &h.nn(), &h.jt(), nullptr);
  h.sim().RunUntil(kMinute);
  EXPECT_EQ(auditor.AuditNow(), 0u);
  // One check covers both masters' liveness: let each live gauge drift
  // from its count, as a re-admission that skipped the gauge would.
  obs::MetricsRegistry& metrics = h.sim().obs().metrics();
  metrics.GetGauge("hdfs.datanodes.live").Set(2);
  metrics.GetGauge("mr.trackers.live").Set(4);
  EXPECT_EQ(auditor.AuditNow(), 2u);
  ASSERT_EQ(auditor.records().size(), 2u);
  for (const check::Violation& v : auditor.records()) {
    EXPECT_EQ(std::string(v.invariant), "health.live_gauge");
  }
  EXPECT_NE(auditor.records()[0].detail.find("hdfs.datanodes.live"),
            std::string::npos);
  EXPECT_NE(auditor.records()[1].detail.find("mr.trackers.live"),
            std::string::npos);
}

TEST(Auditor, FailFastThrowsAuditError) {
  hdfs::HdfsConfig config;
  TestCluster h = HdfsCluster(2, 3, config);
  const hdfs::FileId file = h.nn().ImportFile("f", 64 * kMiB);
  const auto loc = h.nn().GetFileBlocks(file)[0];
  check::Auditor::Options options;
  options.fail_fast = true;
  check::Auditor auditor(h.sim(), &h.nn(), nullptr, nullptr, options);
  h.datanode(loc.datanodes[0]).disk().Release(64 * kMiB);
  EXPECT_THROW(auditor.AuditNow(), check::AuditError);
}

// ---- Random chaos scenarios -------------------------------------------------

TEST(RandomScenario, DeterministicAndSeedSensitive) {
  const fault::Scenario a = fault::RandomScenario(42);
  const fault::Scenario b = fault::RandomScenario(42);
  const fault::Scenario c = fault::RandomScenario(43);
  EXPECT_EQ(fault::FormatScenario(a), fault::FormatScenario(b));
  EXPECT_NE(fault::FormatScenario(a), fault::FormatScenario(c));
}

TEST(RandomScenario, RoundTripsThroughTextForm) {
  for (std::uint64_t seed : {1ull, 7ull, 1000ull, 1017ull}) {
    const fault::Scenario s = fault::RandomScenario(seed);
    const std::string text = fault::FormatScenario(s);
    const fault::Scenario reparsed = fault::ParseScenario(text, s.name);
    EXPECT_EQ(fault::FormatScenario(reparsed), text) << "seed " << seed;
  }
}

TEST(RandomScenario, DrawsFromTheSurvivablePalette) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const fault::Scenario s = fault::RandomScenario(seed);
    EXPECT_EQ(s.actions.size(), 8u);
    const std::string text = fault::FormatScenario(s);
    // Disk-capacity faults make job failures legitimate, which would
    // poison the soak's "self-healing" assertion — never generated.
    EXPECT_EQ(text.find("shrink-disks"), std::string::npos);
    EXPECT_EQ(text.find("fill-disks"), std::string::npos);
    // Master blackouts are rationed: at most two per scenario.
    std::size_t blackouts = 0, pos = 0;
    while ((pos = text.find("-blackout", pos)) != std::string::npos) {
      ++blackouts;
      ++pos;
    }
    EXPECT_LE(blackouts, 2u);
  }
}

// ---- Site-storm re-replication drain ----------------------------------------

TEST(SiteStorm, QueueDrainsAndNoBlockLeftBehind) {
  hog::HogConfig config;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 1e9;  // all churn comes from the scenario
    site.burst_interval_s = 0;
    site.queue_delay_mean_s = 30.0;
  }
  hog::HogCluster cluster(5, config);
  cluster.RequestNodes(25);
  ASSERT_TRUE(cluster.WaitForNodes(25, 4 * kHour));

  // Data to protect: a handful of 10-way replicated files.
  std::vector<hdfs::FileId> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back(cluster.namenode().ImportFile(
        "f" + std::to_string(i), 2 * 64 * kMiB));
  }

  // The auditor rides along in fail-fast mode: any bookkeeping divergence
  // (including a transfer aimed at a dead or zombie target) dies here.
  check::Auditor::Options aopts;
  aopts.fail_fast = true;
  aopts.period = 15 * kSecond;
  check::Auditor auditor(cluster.sim(), &cluster.namenode(),
                         &cluster.jobtracker(), &cluster.grid(), aopts);
  auditor.Start();

  const fault::Scenario storm =
      fault::LoadScenarioFile(HOGSIM_SOURCE_DIR "/scenarios/site_storm.txt");
  const auto injector = exp::ArmScenario(cluster, storm);
  ASSERT_NE(injector, nullptr);

  // Ride out the storm (last periodic action ends at 40 m), then drain.
  cluster.sim().RunUntil(cluster.sim().now() + 45 * kMinute);
  ASSERT_TRUE(workload::RunSimUntil(
      cluster.sim(),
      [&] { return cluster.namenode().under_replicated() == 0; },
      cluster.sim().now() + 2 * kHour, 5 * kSecond))
      << "the priority queue must drain to zero after the storm";

  EXPECT_EQ(cluster.namenode().under_replicated(), 0u);
  EXPECT_EQ(cluster.namenode().missing_blocks(), 0u);
  for (hdfs::FileId file : files) {
    for (const auto& loc : cluster.namenode().GetFileBlocks(file)) {
      EXPECT_EQ(loc.datanodes.size(), 10u)
          << "block " << loc.block << " not back at full replication";
    }
  }
  auditor.AuditNow();
  EXPECT_EQ(auditor.violations(), 0u);
}

}  // namespace
}  // namespace hogsim
