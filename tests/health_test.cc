// Tests for the gray-failure hardening layer (src/health): the deadline
// detector's byte-pin formula, phi-accrual conformance (bootstrap,
// adaptive tightening, variance prior, clamps, monotone suspicion), the
// detector registry grammar, node quarantine's probation triggers and
// hysteretic release, and integration regressions — the deadline twin-run
// byte pin, detector-choice invisibility on a healthy cluster, and
// speculative execution rescuing a slow node without a job-failure
// charge.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/grid/grid.h"
#include "src/health/detector.h"
#include "src/health/liveness.h"
#include "src/health/quarantine.h"
#include "src/hog/hog_cluster.h"
#include "src/sim/simulation.h"
#include "src/workload/runner.h"

namespace hogsim::health {
namespace {

// ---------------------------------------------------------------------------
// DeadlineDetector: the byte-pinned degenerate case

TEST(DeadlineDetectorTest, DeadlineIsLastHeartbeatPlusTimeout) {
  DeadlineDetector d(30 * kSecond);
  d.OnHeartbeat(0, 100 * kSecond);
  EXPECT_EQ(d.Deadline(0), 130 * kSecond);
  // A later heartbeat slides the deadline; nothing else matters.
  d.OnHeartbeat(0, 112 * kSecond);
  EXPECT_EQ(d.Deadline(0), 142 * kSecond);
}

TEST(DeadlineDetectorTest, ForgetReturnsToNeverLikeUnknownIds) {
  DeadlineDetector d(30 * kSecond);
  d.OnHeartbeat(0, kSecond);
  d.Forget(0);
  // A forgotten id is indistinguishable from one never heard from.
  EXPECT_EQ(d.Deadline(0), d.Deadline(99));
}

TEST(DeadlineDetectorTest, SuspicionMonotoneFromZero) {
  DeadlineDetector d(30 * kSecond);
  const SimTime last = 100 * kSecond;
  d.OnHeartbeat(0, last);
  EXPECT_EQ(d.Suspicion(0, last), 0);
  const double early = d.Suspicion(0, last + 10 * kSecond);
  const double late = d.Suspicion(0, last + 29 * kSecond);
  EXPECT_GT(early, 0);
  EXPECT_GT(late, early);
}

// ---------------------------------------------------------------------------
// PhiDetector conformance

constexpr SimDuration kBootstrap = 60 * kSecond;

PhiDetector SteadyPhi(int beats, SimDuration cadence = 3 * kSecond) {
  PhiDetector d(kBootstrap, PhiDetectorConfig{});
  for (int i = 0; i < beats; ++i) {
    d.OnHeartbeat(0, static_cast<SimTime>(i) * cadence);
  }
  return d;
}

TEST(PhiDetectorTest, BootstrapBudgetBeforeMinSamples) {
  // Fewer intervals than min_samples: the fixed bootstrap applies verbatim.
  PhiDetector d = SteadyPhi(3);
  EXPECT_EQ(d.Deadline(0), 2 * 3 * kSecond + kBootstrap);
}

TEST(PhiDetectorTest, VariancePriorKeepsEarlyBudgetNearBootstrap) {
  // Right past the min_samples handoff the learned variance is still
  // dominated by the bootstrap-derived prior, so the budget eases off the
  // fixed timeout instead of collapsing onto the floor (the collapse is
  // what convicts a briefly-quiet node right after its history resets).
  PhiDetectorConfig config;
  PhiDetector d(kBootstrap, config);
  SimTime last = 0;
  for (int i = 0; i <= config.min_samples; ++i) {
    last = static_cast<SimTime>(i) * 3 * kSecond;
    d.OnHeartbeat(0, last);
  }
  const SimDuration budget = d.Deadline(0) - last;
  EXPECT_GT(budget, 45 * kSecond);  // no collapse
  EXPECT_LE(budget, static_cast<SimDuration>(config.cap *
                                             static_cast<double>(kBootstrap)));
}

TEST(PhiDetectorTest, SteadyCadenceTightensToTheFloor) {
  // 200 exact-cadence intervals decay the prior away; a near-zero spread
  // clamps at floor * bootstrap — far tighter than the fixed timeout.
  PhiDetectorConfig config;
  PhiDetector d = SteadyPhi(201);
  const SimTime last = 200 * 3 * kSecond;
  const auto floor_budget = static_cast<SimDuration>(
      config.floor * static_cast<double>(kBootstrap));
  EXPECT_EQ(d.Deadline(0), last + floor_budget);
  EXPECT_NEAR(d.MeanIntervalSeconds(0), 3.0, 1e-9);
}

TEST(PhiDetectorTest, JitteryCadenceEarnsALongerLeash) {
  // Alternating 1 s / 5 s intervals: same mean as the steady cadence but
  // real spread, so the learned budget sits above the steady one.
  PhiDetector jittery(kBootstrap, PhiDetectorConfig{});
  SimTime at = 0;
  for (int i = 0; i < 200; ++i) {
    at += (i % 2 == 0) ? kSecond : 5 * kSecond;
    jittery.OnHeartbeat(0, at);
  }
  PhiDetector steady = SteadyPhi(201);
  const SimDuration jittery_budget = jittery.Deadline(0) - at;
  const SimDuration steady_budget = steady.Deadline(0) - 200 * 3 * kSecond;
  EXPECT_GT(jittery_budget, steady_budget);
}

TEST(PhiDetectorTest, CapBoundsDetectionLatency) {
  // Pathological spread: the adaptive budget is clamped at cap * bootstrap,
  // so detection latency stays bounded no matter the history.
  PhiDetectorConfig config;
  PhiDetector d(kBootstrap, config);
  SimTime at = 0;
  for (int i = 0; i < 40; ++i) {
    at += (i % 2 == 0) ? kSecond : 600 * kSecond;
    d.OnHeartbeat(0, at);
  }
  const auto cap_budget = static_cast<SimDuration>(
      config.cap * static_cast<double>(kBootstrap));
  EXPECT_EQ(d.Deadline(0), at + cap_budget);
}

TEST(PhiDetectorTest, SuspicionMonotoneInSilence) {
  PhiDetector d = SteadyPhi(50);
  const SimTime last = 49 * 3 * kSecond;
  EXPECT_EQ(d.Suspicion(0, last), 0);
  const double s1 = d.Suspicion(0, last + 2 * kSecond);
  const double s2 = d.Suspicion(0, last + 6 * kSecond);
  const double s3 = d.Suspicion(0, last + 30 * kSecond);
  EXPECT_GE(s1, 0);
  EXPECT_GT(s2, s1);
  EXPECT_GT(s3, s2);
}

TEST(PhiDetectorTest, NormalQuantileSanity) {
  EXPECT_NEAR(NormalUpperTailQuantile(0.5), 0.0, 1e-6);
  const double z8 = NormalUpperTailQuantile(1e-8);
  EXPECT_GT(z8, 5.5);
  EXPECT_LT(z8, 5.7);
  EXPECT_GT(NormalUpperTailQuantile(1e-12), z8);
}

// ---------------------------------------------------------------------------
// Registry grammar

TEST(DetectorRegistryTest, CreatesBothNamesWithParams) {
  auto dl = CreateDetector("deadline", 30 * kSecond);
  EXPECT_EQ(dl->name(), "deadline");
  auto phi = CreateDetector(
      "phi:threshold=12;window=128;min_samples=16;sigma_floor=0.2", kBootstrap);
  EXPECT_EQ(phi->name(), "phi");
  const auto* typed = dynamic_cast<PhiDetector*>(phi.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_DOUBLE_EQ(typed->config().threshold, 12.0);
  EXPECT_DOUBLE_EQ(typed->config().window, 128.0);
  EXPECT_EQ(typed->config().min_samples, 16);
  EXPECT_DOUBLE_EQ(typed->config().sigma_floor, 0.2);
}

TEST(DetectorRegistryTest, RejectsUnknownNamesAndParams) {
  EXPECT_THROW(CreateDetector("psychic", kSecond), std::invalid_argument);
  EXPECT_THROW(CreateDetector("phi:bogus=1", kSecond), std::invalid_argument);
  EXPECT_THROW(CreateDetector("phi:threshold", kSecond),
               std::invalid_argument);
  EXPECT_THROW(CreateDetector("deadline:threshold=8", kSecond),
               std::invalid_argument);
  for (const char* spec :
       {"phi:threshold=8;threshold=9", "phi:min_samples=2.5",
        "phi:threshold=0x10", "phi:", "deadline:"}) {
    EXPECT_THROW(CreateDetector(spec, kSecond), std::invalid_argument)
        << spec;
  }
  const auto& names = DetectorNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "deadline"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "phi"), names.end());
}

// ---------------------------------------------------------------------------
// Heartbeat delay (the delay-heartbeats gray fault)

TEST(HeartbeatDelayTest, ZeroJitterIsExactlyTheLatency) {
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_EQ(HeartbeatDelay(7 * kMillisecond, 3, seq, 0), 7 * kMillisecond);
  }
}

TEST(HeartbeatDelayTest, StaysWithinLatencyPlusJitter) {
  constexpr SimDuration kLatency = 40 * kMillisecond;
  for (std::uint64_t node = 0; node < 8; ++node) {
    for (std::uint64_t seq = 1; seq <= 512; ++seq) {
      const SimDuration d = HeartbeatDelay(kLatency, node, seq, 5 * kSecond);
      EXPECT_GE(d, kLatency);
      EXPECT_LE(d, kLatency + 5 * kSecond);
    }
  }
  // Both ends are reachable: a one-tick jitter draws each of them.
  std::set<SimDuration> ends;
  for (std::uint64_t window = 0; window < 64; ++window) {
    ends.insert(HeartbeatDelay(kLatency, 1, 16 * window, 1));
  }
  EXPECT_EQ(ends, (std::set<SimDuration>{kLatency, kLatency + 1}));
}

TEST(HeartbeatDelayTest, EachWindowOf16HeartbeatsSharesOneDraw) {
  std::set<SimDuration> draws;
  for (std::uint64_t window = 0; window < 32; ++window) {
    const SimDuration first = HeartbeatDelay(0, 5, 16 * window, kSecond);
    for (std::uint64_t seq = 16 * window + 1; seq < 16 * (window + 1);
         ++seq) {
      EXPECT_EQ(HeartbeatDelay(0, 5, seq, kSecond), first) << "seq " << seq;
    }
    draws.insert(first);
  }
  // Windows draw afresh, and so do nodes.
  EXPECT_GT(draws.size(), 16u);
  EXPECT_NE(HeartbeatDelay(0, 5, 0, kSecond), HeartbeatDelay(0, 6, 0, kSecond));
}

// ---------------------------------------------------------------------------
// Quarantine probation triggers and release

QuarantineConfig TestQuarantineConfig() {
  QuarantineConfig config;
  config.flap_threshold = 2;
  config.min_task_samples = 2;
  config.degrade_factor = 1.8;
  config.probation_min = 5 * kMinute;
  config.quiet_window = 3 * kMinute;
  return config;
}

int AllSiteZero(std::uint32_t) { return 0; }

// The tasktrackers' nominal heartbeat cadence (MrConfig's default).
constexpr SimDuration kCadence = 3 * kSecond;

TEST(QuarantineTest, FlapThresholdProbates) {
  sim::Simulation sim;
  Quarantine q(sim, TestQuarantineConfig(), kCadence, AllSiteZero);
  q.OnFlap(5);
  EXPECT_FALSE(q.Probated(5));
  q.OnFlap(5);
  EXPECT_TRUE(q.Probated(5));
  EXPECT_EQ(q.flaps(), 2u);
  EXPECT_EQ(q.probations_entered(), 1u);
  EXPECT_EQ(q.probated_count(), 1u);
}

TEST(QuarantineTest, DegradedVsPeerMedianProbates) {
  sim::Simulation sim;
  Quarantine q(sim, TestQuarantineConfig(), kCadence, AllSiteZero);
  // Three healthy peers at ~10 s map walls establish the site baseline.
  for (std::uint32_t peer : {1u, 2u, 3u}) {
    q.OnTaskDuration(peer, 10.0);
    q.OnTaskDuration(peer, 10.0);
  }
  // The degraded node runs 3x the peer median (> degrade_factor 1.8).
  q.OnTaskDuration(0, 30.0);
  EXPECT_FALSE(q.Probated(0));  // below min_task_samples
  q.OnTaskDuration(0, 30.0);
  EXPECT_TRUE(q.Probated(0));
  EXPECT_EQ(sim.obs().metrics().GetCounter("health.degraded.detected").value(),
            1u);
}

TEST(QuarantineTest, ThinPeerBaselineNeverConvicts) {
  sim::Simulation sim;
  Quarantine q(sim, TestQuarantineConfig(), kCadence, AllSiteZero);
  // Only two qualified peers: no verdict, however slow the node looks.
  for (std::uint32_t peer : {1u, 2u}) {
    q.OnTaskDuration(peer, 10.0);
    q.OnTaskDuration(peer, 10.0);
  }
  q.OnTaskDuration(0, 300.0);
  q.OnTaskDuration(0, 300.0);
  EXPECT_FALSE(q.Probated(0));
}

TEST(QuarantineTest, SlowMinorityDoesNotDragThePeerBaseline) {
  sim::Simulation sim;
  Quarantine q(sim, TestQuarantineConfig(), kCadence, AllSiteZero);
  // Five healthy peers and one other slow node: the MEDIAN baseline stays
  // at the healthy walls (a pooled site mean would be polluted by the
  // slow pair and miss the conviction).
  for (std::uint32_t peer : {1u, 2u, 3u, 4u, 5u}) {
    q.OnTaskDuration(peer, 10.0);
    q.OnTaskDuration(peer, 10.0);
  }
  q.OnTaskDuration(6, 30.0);
  q.OnTaskDuration(6, 30.0);  // the other slow node — convicted too
  EXPECT_TRUE(q.Probated(6));
  q.OnTaskDuration(0, 30.0);
  q.OnTaskDuration(0, 30.0);
  EXPECT_TRUE(q.Probated(0));
}

TEST(QuarantineTest, HeartbeatJitterProbates) {
  sim::Simulation sim;
  Quarantine q(sim, TestQuarantineConfig(), kCadence, AllSiteZero);
  // 15 s inter-arrivals against a 3 s cadence: 5x the nominal interval,
  // past jitter_factor 3.
  q.OnHeartbeat(7, 3 * kSecond);
  q.OnHeartbeat(7, 18 * kSecond);
  EXPECT_FALSE(q.Probated(7));  // one interval: below the sample gate
  q.OnHeartbeat(7, 33 * kSecond);
  EXPECT_TRUE(q.Probated(7));
}

TEST(QuarantineTest, HystereticReleaseNeedsMinimumAndQuietWindow) {
  sim::Simulation sim;
  Quarantine q(sim, TestQuarantineConfig(), kCadence, AllSiteZero);
  q.OnFlap(4);
  q.OnFlap(4);
  ASSERT_TRUE(q.Probated(4));
  // Under probation_min: held even though the node has gone quiet.
  sim.RunUntil(2 * kMinute);
  q.TickNow();
  EXPECT_TRUE(q.Probated(4));
  // A flap mid-probation restarts the quiet window.
  sim.RunUntil(4 * kMinute);
  q.OnFlap(4);
  sim.RunUntil(6 * kMinute);
  q.TickNow();
  EXPECT_TRUE(q.Probated(4));  // only 2 min quiet
  sim.RunUntil(8 * kMinute);
  q.TickNow();
  EXPECT_FALSE(q.Probated(4));
  EXPECT_EQ(q.probations_released(), 1u);
  // Flap evidence resets on release: the next probation needs fresh cycles.
  EXPECT_EQ(q.FlapCount(4), 0);
}

TEST(QuarantineTest, NodeDeathRetiresEvidence) {
  sim::Simulation sim;
  Quarantine q(sim, TestQuarantineConfig(), kCadence, AllSiteZero);
  q.OnFlap(2);
  q.OnFlap(2);
  ASSERT_TRUE(q.Probated(2));
  q.OnNodeDead(2);
  EXPECT_FALSE(q.Probated(2));
  EXPECT_EQ(q.FlapCount(2), 0);
  EXPECT_EQ(q.probated_count(), 0u);
}

// ---------------------------------------------------------------------------
// Integration regressions on the HOG façade

constexpr SimTime kItDeadline = 4 * kHour;

std::vector<grid::SiteConfig> QuietSites() {
  auto sites = hog::DefaultOsgSites();
  for (auto& site : sites) {
    site.node_mtbf_s = 1e9;
    site.burst_interval_s = 0;
    site.queue_delay_mean_s = 30.0;
  }
  return sites;
}

mr::JobSpec SmallJob(hdfs::FileId input, int reduces) {
  mr::JobSpec spec;
  spec.name = "health-it";
  spec.input = input;
  spec.num_reduces = reduces;
  return spec;
}

struct RunResult {
  std::uint64_t executed = 0;
  bool succeeded = false;
  std::uint64_t speculative = 0;
};

RunResult RunSmallWorkload(const std::string& detector) {
  hog::HogConfig config;
  config.sites = QuietSites();
  if (!detector.empty()) config.hdfs.detector = config.mr.detector = detector;
  hog::HogCluster hog(/*seed=*/7, config);
  hog.RequestNodes(20);
  if (!hog.WaitForNodes(20, kItDeadline)) return {};
  const auto input = hog.namenode().ImportFile("input", 12 * 64 * kMiB);
  const auto job = hog.jobtracker().SubmitJob(SmallJob(input, 3));
  if (!workload::RunSimUntil(
          hog.sim(), [&] { return hog.jobtracker().AllJobsDone(); },
          kItDeadline)) {
    return {};
  }
  RunResult r;
  r.executed = hog.sim().executed();
  r.succeeded =
      hog.jobtracker().job(job).state == mr::JobState::kSucceeded;
  r.speculative = hog.jobtracker().speculative_attempts();
  return r;
}

TEST(HealthIntegration, DefaultConfigIsTheDeadlineDetectorTwinRun) {
  // The byte pin: an explicit --detector=deadline must replay the default
  // configuration event for event.
  const RunResult implicit = RunSmallWorkload("");
  const RunResult explicit_deadline = RunSmallWorkload("deadline");
  ASSERT_TRUE(implicit.succeeded);
  ASSERT_TRUE(explicit_deadline.succeeded);
  EXPECT_EQ(implicit.executed, explicit_deadline.executed);
}

TEST(HealthIntegration, DetectorChoiceInvisibleOnHealthyCluster) {
  // With nothing dying and nothing jittering, the conviction rule never
  // fires — swapping detectors must not perturb the event stream (the
  // detectors own no timers and draw no RNG).
  const RunResult deadline = RunSmallWorkload("deadline");
  const RunResult phi = RunSmallWorkload("phi");
  ASSERT_TRUE(deadline.succeeded);
  ASSERT_TRUE(phi.succeeded);
  EXPECT_EQ(deadline.executed, phi.executed);
}

TEST(HealthIntegration, SpeculationRescuesSlowNodeWithoutFailureCharge) {
  // Satellite regression: a gray-slow node drags its attempts; speculative
  // copies on healthy nodes win the race, the losers are killed, and the
  // kills are charged to nobody — the job succeeds with zero task
  // failures.
  hog::HogConfig config;
  config.sites = QuietSites();
  hog::HogCluster hog(/*seed=*/11, config);
  hog.RequestNodes(20);
  ASSERT_TRUE(hog.WaitForNodes(20, kItDeadline));
  ASSERT_TRUE(hog.grid().SetNodeComputeScale(0, 8.0));
  const auto input = hog.namenode().ImportFile("input", 24 * 64 * kMiB);
  const auto job = hog.jobtracker().SubmitJob(SmallJob(input, 4));
  ASSERT_TRUE(workload::RunSimUntil(
      hog.sim(), [&] { return hog.jobtracker().AllJobsDone(); },
      kItDeadline));
  const mr::JobInfo& info = hog.jobtracker().job(job);
  EXPECT_EQ(info.state, mr::JobState::kSucceeded);
  EXPECT_GT(hog.jobtracker().speculative_attempts(), 0u);
  for (const mr::TaskInfo& map : info.maps) {
    EXPECT_EQ(map.failures, 0) << "map " << map.index;
  }
  for (const mr::TaskInfo& reduce : info.reduces) {
    EXPECT_EQ(reduce.failures, 0) << "reduce " << reduce.index;
  }
}

}  // namespace
}  // namespace hogsim::health
