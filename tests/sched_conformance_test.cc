// Policy-conformance harness for the scheduler zoo (ISSUE 7 tentpole).
//
// Every registered policy — fifo, fair, capacity, atlas — is run through
// the same battery, pinning the contract documented in src/sched/policy.h:
//
//  * Determinism: twin runs over several placement seeds replay
//    byte-identical trajectories (event counts, launches, finish times).
//  * Heartbeat discipline: at most one map and one reduce launch per
//    tracker per simulation instant (Hadoop 0.20's one-per-heartbeat).
//  * Work conservation: a free map slot never idles while a job the
//    tracker may legally serve has a runnable map. (Capacity hard caps
//    and delay scheduling are the sanctioned exceptions; the conformance
//    configs keep both disarmed.)
//  * No starvation: a backlogged heavy user never prevents later light
//    users from finishing.
//  * Locality preference: an uncontended job lands the large majority of
//    its maps node-local on the 3-site harness.
//  * Blackout-recovery replay equivalence: a jobtracker crash/restart
//    mid-workload stays deterministic and auditor-clean.
//
// A seeded property fuzzer then churns job arrivals, tracker kills, and
// glidein reincarnation under a fail-fast cross-layer auditor (src/check)
// whose invariants include the new mr.pending_valid and mr.blacklist_live
// checks. Policy-specific behaviour (fair preemption, capacity caps and
// elasticity, atlas risk speculation) is pinned at the end of the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sched/policy.h"
#include "src/util/rng.h"
#include "src/util/spec.h"
#include "tests/test_cluster.h"

namespace hogsim::sched {
namespace {

struct PolicyCase {
  const char* label;  // gtest-safe name
  const char* spec;   // CreatePolicy spec
};

// Prints the label, not the two pointers gtest would otherwise dump into
// the test names (they moved between builds).
void PrintTo(const PolicyCase& param, std::ostream* os) { *os << param.label; }

class SchedConformance : public ::testing::TestWithParam<PolicyCase> {};

// ---- Shared machinery -------------------------------------------------------

struct RunSignature {
  unsigned long long executed = 0;
  unsigned long long launched = 0;
  std::vector<long long> finished;   // per job, -1 if not finished
  std::vector<int> states;           // JobState as int
  bool operator==(const RunSignature& o) const {
    return executed == o.executed && launched == o.launched &&
           finished == o.finished && states == o.states;
  }
};

RunSignature Signature(TestCluster& h) {
  RunSignature sig;
  sig.executed = h.sim().executed();
  sig.launched = h.jt().attempts_launched();
  for (mr::JobId id = 0; id < h.jt().job_count(); ++id) {
    const mr::JobInfo& job = h.jt().job(id);
    sig.finished.push_back(static_cast<long long>(job.finished));
    sig.states.push_back(static_cast<int>(job.state));
  }
  return sig;
}

/// The standard mixed workload: two users across two queues, job sizes
/// chosen so every policy has ordering decisions to make.
void SubmitMixedWorkload(TestCluster& h) {
  h.Submit(Maps(24), 2, {"alice", "prod"});
  h.Submit(Maps(16), 1, {"bob", "adhoc"});
  h.Submit(Maps(8), 1, {"alice", "adhoc"});
  h.Submit(Maps(6), 1, {"bob", "prod"});
}

mr::MrConfig ConfigFor(const PolicyCase& param) {
  mr::MrConfig config;
  config.scheduler = param.spec;
  return config;
}

/// True iff some alive tracker has a free map slot AND some running job it
/// may legally serve (not blacklisted there) has a map needing an attempt.
/// This is the work-conservation antecedent; while it holds, a conforming
/// policy must keep launching maps.
bool RunnableMapOfferExists(const mr::JobTracker& jt) {
  const mr::MrConfig& config = jt.config();
  for (mr::JobId id = 0; id < jt.job_count(); ++id) {
    const mr::JobInfo& job = jt.job(id);
    if (job.state != mr::JobState::kRunning) continue;
    bool needy = false;
    for (const mr::TaskInfo& task : job.maps) {
      if (!task.complete &&
          static_cast<int>(task.active_attempts.size()) < config.task_copies &&
          task.failures < config.max_attempts) {
        needy = true;
        break;
      }
    }
    if (!needy) continue;
    for (mr::TrackerId t = 0; t < jt.tracker_count(); ++t) {
      const auto& entry = jt.tracker(t);
      if (!jt.TrackerAlive(t) || entry.daemon == nullptr ||
          !entry.daemon->process_alive()) {
        continue;
      }
      if (entry.used_map_slots >= entry.daemon->map_slots()) continue;
      if (job.blacklist.contains(t)) continue;
      return true;
    }
  }
  return false;
}

// ---- Determinism ------------------------------------------------------------

TEST_P(SchedConformance, DeterministicAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    RunSignature sigs[2];
    for (int run = 0; run < 2; ++run) {
      TestCluster h = SchedCluster(ConfigFor(GetParam()), seed);
      SubmitMixedWorkload(h);
      ASSERT_TRUE(h.RunToCompletion())
          << GetParam().label << " stalled (seed " << seed << ")";
      sigs[run] = Signature(h);
    }
    EXPECT_TRUE(sigs[0] == sigs[1])
        << GetParam().label << " diverged between twin runs (seed " << seed
        << ")";
  }
}

// ---- Heartbeat discipline ---------------------------------------------------

TEST_P(SchedConformance, AtMostOneLaunchPerSlotTypePerHeartbeat) {
  TestCluster h = SchedCluster(ConfigFor(GetParam()));
  // (time, tracker, is_map) -> launches at that instant.
  std::map<std::tuple<SimTime, mr::TrackerId, bool>, int> launches;
  int worst = 0;
  h.jt().set_on_attempt_event([&](const mr::JobTracker::AttemptEvent& ev) {
    if (ev.kind != mr::JobTracker::AttemptEvent::Kind::kLaunched) return;
    const int n = ++launches[{ev.time, ev.tracker,
                              ev.task_type == mr::TaskType::kMap}];
    worst = std::max(worst, n);
  });
  SubmitMixedWorkload(h);
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_LE(worst, 1) << GetParam().label
                      << " launched >1 task of one type in a single "
                         "heartbeat";
}

// ---- Work conservation ------------------------------------------------------

TEST_P(SchedConformance, WorkConservation) {
  TestCluster h = SchedCluster(ConfigFor(GetParam()));
  SimTime last_progress = 0;  // last launch or last instant with no offer
  SimTime worst_idle = 0;
  h.jt().set_on_attempt_event([&](const mr::JobTracker::AttemptEvent& ev) {
    if (ev.kind == mr::JobTracker::AttemptEvent::Kind::kLaunched &&
        ev.task_type == mr::TaskType::kMap) {
      last_progress = ev.time;
    }
  });
  SubmitMixedWorkload(h);
  while (!h.jt().AllJobsDone() && h.sim().now() < 8 * kHour) {
    h.sim().RunUntil(h.sim().now() + kSecond);
    if (!RunnableMapOfferExists(h.jt())) {
      last_progress = h.sim().now();
    } else {
      worst_idle = std::max(worst_idle, h.sim().now() - last_progress);
    }
  }
  ASSERT_TRUE(h.jt().AllJobsDone());
  // Ten heartbeat periods of slack: offers only arrive every 3 s, and a
  // fair-preemption kill leaves the slot empty until the next beat.
  EXPECT_LE(worst_idle, 30 * kSecond)
      << GetParam().label << " idled a usable map slot for "
      << FormatDuration(worst_idle) << " while runnable maps were pending";
}

// ---- No starvation ----------------------------------------------------------

TEST_P(SchedConformance, LateLightUsersFinishDespiteHeavyBacklog) {
  TestCluster h = SchedCluster(ConfigFor(GetParam()));
  h.Submit(Maps(48), 4, {"hog", "prod"});  // saturates all 24 map slots
  std::vector<mr::JobId> light;
  for (int i = 0; i < 4; ++i) {
    h.sim().RunUntil(h.sim().now() + 30 * kSecond);
    light.push_back(h.Submit(Maps(4), 1, {"mouse", "adhoc"}));
  }
  ASSERT_TRUE(h.RunToCompletion()) << GetParam().label << " starved a job";
  for (mr::JobId id : light) {
    EXPECT_EQ(h.jt().job(id).state, mr::JobState::kSucceeded);
  }
}

// ---- Locality preference ----------------------------------------------------

TEST_P(SchedConformance, UncontendedJobRunsMostlyNodeLocal) {
  TestCluster h = SchedCluster(ConfigFor(GetParam()));
  const mr::JobId id = h.Submit(Maps(24), 1);
  ASSERT_TRUE(h.RunToCompletion());
  const mr::JobInfo& job = h.jt().job(id);
  EXPECT_GE(job.data_local_maps, 12)
      << GetParam().label << " wasted locality: " << job.data_local_maps
      << " local / " << job.rack_local_maps << " rack / " << job.remote_maps
      << " remote";
  EXPECT_LE(job.remote_maps, 4) << GetParam().label;
}

// ---- Blackout-recovery replay equivalence -----------------------------------

RunSignature RunBlackoutWorkload(const PolicyCase& param) {
  TestCluster h = SchedCluster(ConfigFor(param));
  SubmitMixedWorkload(h);
  h.sim().RunUntil(90 * kSecond);
  h.jt().Crash();
  h.sim().RunUntil(150 * kSecond);
  h.jt().Restart();
  EXPECT_TRUE(h.RunToCompletion()) << param.label << " stalled after blackout";
  check::Auditor auditor(h.sim(), &h.nn(), &h.jt(), nullptr);
  EXPECT_EQ(auditor.AuditNow(), 0u)
      << param.label << " left invariant violations after blackout recovery";
  return Signature(h);
}

TEST_P(SchedConformance, BlackoutRecoveryIsReplayEquivalent) {
  const RunSignature first = RunBlackoutWorkload(GetParam());
  const RunSignature second = RunBlackoutWorkload(GetParam());
  EXPECT_TRUE(first == second)
      << GetParam().label << " blackout recovery diverged between twin runs";
}

// ---- Property fuzzer --------------------------------------------------------

/// Seeded churn: random job arrivals (mixed users/queues/sizes), tracker
/// kills, and glidein reincarnation, stepped under a fail-fast auditor.
/// After the churn window the cluster drains and must end jobs-done and
/// auditor-clean. Auditor invariants covered include mr.pending_valid,
/// mr.blacklist_live, mr.slot_accounting, and mr.scheduler_liveness.
void FuzzPolicy(const PolicyCase& param, std::uint64_t seed) {
  mr::MrConfig config = ConfigFor(param);
  // Keep losses survivable: expiry well under the drain deadline.
  config.tracker_expiry = 2 * kMinute;
  TestCluster h = SchedCluster(config, seed);
  auto auditor = h.ArmAuditor(/*period=*/10 * kSecond);

  Rng rng(seed * 7919 + 17);
  const char* users[] = {"alice", "bob", "carol"};
  const char* queues[] = {"prod", "adhoc"};
  int kills = 0;
  for (int step = 0; step < 40; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.5) {
      // Queue first, size last: each seed's run depends on this order.
      const char* queue = queues[rng.UniformInt(0, 1)];
      const char* user = users[rng.UniformInt(0, 2)];
      const auto reduces = static_cast<int>(rng.UniformInt(0, 2));
      const auto maps = static_cast<int>(rng.UniformInt(1, 12));
      h.Submit(Maps(maps), reduces, {user, queue});
    } else if (roll < 0.7 && kills + 3 < static_cast<int>(h.worker_count())) {
      // Kill a random original worker at most once each; keep >=3 alive.
      const auto victim = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(h.worker_count()) - 1));
      if (h.jt().TrackerAlive(static_cast<mr::TrackerId>(victim)) &&
          h.tracker(victim).process_alive()) {
        h.KillWorker(victim);
        ++kills;
      }
    } else if (roll < 0.85) {
      AddSchedWorker(h, static_cast<int>(rng.UniformInt(0, 2)));
    }
    h.sim().RunUntil(h.sim().now() + rng.UniformInt(5, 60) * kSecond);
  }
  // Drain: no more churn; everything submitted must finish.
  ASSERT_TRUE(h.RunToCompletion(h.sim().now() + 8 * kHour))
      << param.label << " failed to drain (seed " << seed << ", "
      << h.jt().job_count() << " jobs, " << kills << " kills)";
  EXPECT_EQ(auditor->violations(), 0u);
  EXPECT_EQ(auditor->AuditNow(), 0u);
  for (mr::JobId id = 0; id < h.jt().job_count(); ++id) {
    EXPECT_NE(h.jt().job(id).state, mr::JobState::kRunning)
        << param.label << " job " << id << " still running after drain";
  }
}

TEST_P(SchedConformance, FuzzedChurnStaysAuditorClean) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    FuzzPolicy(GetParam(), seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SchedConformance,
    ::testing::Values(
        PolicyCase{"fifo", "fifo"},
        PolicyCase{"fair", "fair"},
        // max=1 keeps hard caps disarmed: the conformance battery pins
        // work conservation; the hard cap has its own test below.
        PolicyCase{"capacity", "capacity:queues=prod:0.6:1;adhoc:0.4:1"},
        PolicyCase{"atlas", "atlas"}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return std::string(info.param.label);
    });

// ---- Registry & parameter grammar -------------------------------------------

TEST(SchedRegistry, KnowsAllPolicies) {
  for (const std::string& name : PolicyNames()) {
    EXPECT_EQ(CreatePolicy(name)->name(), name);
  }
}

TEST(SchedRegistry, RejectsUnknownAndMalformed) {
  EXPECT_THROW(CreatePolicy("lifo"), std::invalid_argument);
  EXPECT_THROW(CreatePolicy("fifo:anything"), std::invalid_argument);
  EXPECT_THROW(CreatePolicy("atlas:alpha=2"), std::invalid_argument);
  EXPECT_THROW(CreatePolicy("atlas:bogus=0.5"), std::invalid_argument);
  EXPECT_THROW(CreatePolicy("capacity:queues=a:0.5:1;=x"),
               std::invalid_argument);
  EXPECT_THROW(CreatePolicy("capacity:queues=a:0.5:1;queues=a:0.5:1"),
               std::invalid_argument);
  // Malformed values, lists given to one-value keys, repeated keys and
  // empty params all fail up front instead of running with a guess.
  for (const char* spec :
       {"fair:tick_s=5abc", "fair:tick_s=4;8", "fair:preempt_timeout_s=-5",
        "fair:weights=a:2;weights=b:3", "atlas:alpha=0.5;alpha=0.9",
        "capacity:queues=prod:0.7:1junk", "fifo:", "fair:tick_s=",
        "atlas:alpha=1e400", "capacity:queues=prod:0.7:x"}) {
    EXPECT_THROW(CreatePolicy(spec), std::invalid_argument) << spec;
  }
}

TEST(SchedRegistry, ParamGrammarExtendsListValues) {
  Spec spec("capacity:queues=prod:0.6:1.0;adhoc:0.4:0.8;tick_s=30");
  const std::vector<std::string> queues = spec.List("queues");
  ASSERT_EQ(queues.size(), 2u);
  EXPECT_EQ(queues[0], "prod:0.6:1.0");
  EXPECT_EQ(queues[1], "adhoc:0.4:0.8");
  EXPECT_EQ(spec.List("tick_s").at(0), "30");
  EXPECT_THROW(Spec("capacity:orphan"), std::invalid_argument);
  EXPECT_THROW(Spec("capacity:a=1;;b=2"), std::invalid_argument);
}

// ---- Policy-specific behaviour ----------------------------------------------

// Fair: a heavy user hogging every slot gets preempted once a starved
// pool has waited out the timeout — and preemption charges no task
// failures, so the heavy job still succeeds.
TEST(SchedFair, PreemptsHoggingPoolForStarvedPool) {
  mr::MrConfig config;
  config.scheduler = "fair:preempt_timeout_s=60;tick_s=15";
  TestCluster h = SchedCluster(config);
  // Slow maps (64 MiB at 0.5 MiB/s = 128 s): the hog holds all 24 slots
  // far past the preemption timeout.
  const mr::JobId hog = h.Submit(Maps(24), 0, {"hog", "", 0.5});
  h.sim().RunUntil(30 * kSecond);  // hog occupies every slot
  const mr::JobId mouse = h.Submit(Maps(4), 0, {"mouse", "", 40});
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_GT(h.jt().attempts_preempted(), 0u)
      << "fair never preempted despite a starved pool";
  EXPECT_EQ(h.jt().job(hog).state, mr::JobState::kSucceeded)
      << "preemption must not fail the preempted job";
  EXPECT_EQ(h.jt().job(mouse).state, mr::JobState::kSucceeded);
  // The mouse got slots long before the hog's 32-minute-class drain.
  EXPECT_LT(h.jt().job(mouse).finished, h.jt().job(hog).finished);
}

// Capacity: hard caps bound a queue's concurrency; elastic caps let the
// same queue borrow the idle remainder.
TEST(SchedCapacity, HardCapBoundsConcurrencyAndElasticityLiftsIt) {
  auto peak_running = [](const char* spec) {
    mr::MrConfig config;
    config.scheduler = spec;
    // No speculation: backup-kill events are silent, which would skew the
    // launch-minus-finish concurrency counter below.
    config.speculative_execution = false;
    TestCluster h = SchedCluster(config);
    int running = 0;
    int peak = 0;
    h.jt().set_on_attempt_event([&](const mr::JobTracker::AttemptEvent& ev) {
      using Kind = mr::JobTracker::AttemptEvent::Kind;
      if (ev.task_type != mr::TaskType::kMap) return;
      if (ev.kind == Kind::kLaunched) {
        peak = std::max(peak, ++running);
      } else {
        --running;
      }
    });
    h.Submit(Maps(48), 0, {"alice", "adhoc"});
    EXPECT_TRUE(h.RunToCompletion());
    return peak;
  };
  // 24 map slots total. Hard-capped adhoc (max=0.25) may never exceed 6
  // concurrent maps even with prod idle; elastic adhoc (max=1) borrows
  // everything.
  const int capped = peak_running("capacity:queues=prod:0.75:1;adhoc:0.25:0.25");
  const int elastic = peak_running("capacity:queues=prod:0.75:1;adhoc:0.25:1");
  EXPECT_LE(capped, 6);
  EXPECT_GT(elastic, 12);
}

// Atlas: losing most of a site marks its survivors risky; their lone
// in-flight maps get insurance clones on safe trackers even with classic
// slowness speculation disabled.
TEST(SchedAtlas, RiskSpeculationClonesAttemptsOffRiskySite) {
  mr::MrConfig config;
  config.scheduler = "atlas";
  config.speculative_execution = false;  // isolate the risk trigger
  // Losses surface at heartbeat expiry; keep that inside the test window.
  config.tracker_expiry = 2 * kMinute;
  TestCluster h = SchedCluster(config);
  h.Submit(Maps(24), 0, {"", "", /*map_rate_mibps=*/2});
  h.sim().RunUntil(30 * kSecond);
  // Kill 3 of site 0's 4 workers (workers 0..3): site risk jumps to
  // 1 - 0.65^3 = 0.73 >= 0.5, so survivor w3 is risky by association.
  h.KillWorker(0);
  h.KillWorker(1);
  h.KillWorker(2);
  ASSERT_TRUE(h.RunToCompletion());
  EXPECT_GT(h.jt().speculative_attempts(), 0u)
      << "atlas never cloned work off the risky site";
  for (mr::JobId id = 0; id < h.jt().job_count(); ++id) {
    EXPECT_EQ(h.jt().job(id).state, mr::JobState::kSucceeded);
  }
}

// Atlas with the threshold pinned to 1.0 never classifies anyone risky,
// so with speculation off it behaves exactly like FIFO on a clean run.
TEST(SchedAtlas, DegeneratesToFifoWhenNothingIsRisky) {
  auto run = [](const char* spec) {
    mr::MrConfig config;
    config.scheduler = spec;
    TestCluster h = SchedCluster(config);
    SubmitMixedWorkload(h);
    EXPECT_TRUE(h.RunToCompletion());
    return Signature(h);
  };
  EXPECT_TRUE(run("atlas:risk_threshold=1") == run("fifo"))
      << "atlas with risk disabled drifted from fifo on a failure-free run";
}

}  // namespace
}  // namespace hogsim::sched
