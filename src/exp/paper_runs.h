// The one HOG run sequence (hogsim::exp): every HOG experiment in the paper
// follows the same protocol — build the deployment, request glideins and
// wait for the configured maximum (§IV.C), load the inputs, replay the
// submission schedule — and exp::HogRun is that protocol, one method per
// phase. RunHogWorkload (the 88-job Facebook run behind Fig. 4/5 and
// Table IV), the scale, scheduler and gray-failure harnesses, and every
// ablation and §IV.D experience run through it; a step only one
// experiment needs (a site kill, preemption waves, disk sampling) goes
// between two phase calls on cluster().
//
// This lives in src/exp (not bench/) so examples and tests can drive the
// same runs hogbench measures.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/fault/scenario.h"
#include "src/hog/hog_cluster.h"
#include "src/util/stats.h"
#include "src/workload/runner.h"

namespace hogsim::check {
class Auditor;
}

namespace hogsim::exp {

constexpr SimTime kSpinUpDeadline = hog::kSpinUpWait;
constexpr SimTime kRunDeadline = 12 * kHour;

struct HogRunResult {
  bool reached_target = false;
  workload::WorkloadResult workload;
  double area_beneath_curve = 0;  // Table IV metric (node-seconds)
  double mean_reported_nodes = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t maps_reexecuted = 0;
  std::uint64_t faults_injected = 0;  // scenario actions applied (if any)
  std::uint64_t faults_skipped = 0;   // scenario actions that hit no target
  StepSeries reported_nodes;  // Fig. 5 trace over the workload window
  SimTime window_start = 0;
  SimTime window_end = 0;

  // Populated when HogRunOptions.audit is set.
  std::uint64_t audit_passes = 0;
  std::uint64_t audit_violations = 0;

  // Populated when HogRunOptions.drain_deadline > 0.
  /// The under-replication queue drained and no committed output was lost.
  bool fully_replicated = false;
  /// Workload end -> fully replicated; NaN (not measured) otherwise.
  double time_to_full_replication_s = std::numeric_limits<double>::quiet_NaN();
  /// Committed output blocks of succeeded jobs with zero believed-alive
  /// replicas at end of run ("the workload said done but the data is
  /// gone") — the soak harness asserts this stays 0.
  std::uint64_t outputs_lost = 0;

  // End-of-run storage accounting (always populated): physical replica
  // bytes across believed-alive holders, logical committed bytes, and the
  // WAN bytes the repair machinery moved. stored/logical is the effective
  // replication factor — the cost axis of hogbench repl.
  Bytes bytes_stored = 0;
  Bytes bytes_logical = 0;
  Bytes repair_bytes = 0;

  // Adaptive replication controller counters (zero when the controller is
  // disabled, i.e. HogRunOptions.repl_target <= 0).
  std::uint64_t repl_targets_raised = 0;
  std::uint64_t repl_targets_lowered = 0;
  std::uint64_t repl_excess_removed = 0;
};

/// What a HOG run adds to its HogConfig: the uniform bench flags
/// (ParseBenchOptions fills BenchOptions::hog) and the drain.
struct HogRunOptions {
  /// Arm a check::Auditor over all four layers for the whole run (periodic
  /// tick + one final end-of-run pass). The auditor only reads state and
  /// draws no RNG, so an audited run's trajectory is identical to an
  /// unaudited one.
  bool audit = false;
  /// Audit violations throw check::AuditError instead of accumulating.
  bool audit_fail_fast = false;
  /// Auditor tick interval.
  SimDuration audit_period = 30 * kSecond;
  /// When > 0: after the workload finishes, keep the cluster running until
  /// the namenode's under-replication queue drains (healing complete) or
  /// this much extra sim time passes. Fills time_to_full_replication_s,
  /// fully_replicated, and outputs_lost.
  SimDuration drain_deadline = 0;
  /// When > 0: arm the adaptive replication controller
  /// (src/hdfs/repl_controller.h) with this availability target — the
  /// `--repl-target=0.999` knob. Overrides config.repl.availability_target;
  /// the rest of config.repl (clamp, EWMA, horizon) applies as given.
  double repl_target = 0;
  /// When non-empty: the intra-site network topology spec
  /// (net::topo::CreateTopology grammar, e.g. "tor:racks=4;oversub=8") —
  /// the --topology knob. Overrides config.net.topology.
  std::string topology;
  /// When non-empty: the failure-detector spec for both masters
  /// (health::CreateDetector grammar, e.g. "phi:threshold=8") — the
  /// --detector knob. Overrides config.hdfs.detector and
  /// config.mr.detector.
  std::string detector;
  /// When non-empty: the MapReduce scheduling policy spec
  /// (sched::CreatePolicy grammar, e.g. "fair") — the --scheduler knob.
  /// Overrides config.mr.scheduler.
  std::string scheduler;
};

/// One HOG run, phase by phase: SpinUp, Prepare, Submit, Run, Finish.
/// The workload phases are skipped when SpinUp fails (or the run has no
/// workload); Finish is always last.
class HogRun {
 public:
  /// Build: applies the option overrides to `config`, constructs the
  /// cluster, and starts the auditor when options.audit is set.
  HogRun(std::uint64_t seed, hog::HogConfig config,
         const HogRunOptions& options = {});
  ~HogRun();
  HogRun(const HogRun&) = delete;
  HogRun& operator=(const HogRun&) = delete;

  hog::HogCluster& cluster() { return cluster_; }
  const workload::WorkloadRunner& runner() const { return runner_; }

  bool SpinUp(int nodes) {
    return result_.reached_target = cluster_.SpinUp(nodes);
  }
  /// SpinUp for a run that measures nothing without its deployment: a
  /// missed target throws std::runtime_error naming the node counts, so
  /// the run fails instead of reporting zeros.
  void RequireSpinUp(int nodes);

  /// Loads the schedule's inputs (instantly: the paper uploads them
  /// before timing).
  void Prepare(std::vector<workload::ScheduledJob> schedule);

  /// Arms `scenario` (null or empty = none) and submits the prepared
  /// schedule, both relative to now: `at 600s` in a scenario means ten
  /// minutes into the measured window, for every seed of a sweep.
  void Submit(const fault::Scenario* scenario = nullptr);

  /// Runs until every job terminates or `limit` of sim time passes, then
  /// records the workload window, preemptions, re-executed maps and
  /// injected and skipped faults.
  const workload::WorkloadResult& Run(SimDuration limit = kRunDeadline);

  /// Optional drain (options.drain_deadline > 0) with the lost-output
  /// scan, then the final audit pass and the storage accounting.
  HogRunResult Finish();

 private:
  void Drain();

  HogRunOptions options_;
  hog::HogCluster cluster_;
  std::unique_ptr<check::Auditor> auditor_;
  workload::WorkloadRunner runner_;
  std::vector<workload::ScheduledJob> schedule_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::uint64_t preemptions_before_ = 0;
  HogRunResult result_;
};

/// The seed's 88-job Facebook schedule (§IV.A) restricted to bins
/// 1..max_bin; `fast` keeps its first half (the benches' --fast trim).
std::vector<workload::ScheduledJob> FacebookSchedule(std::uint64_t seed,
                                                     bool fast = false,
                                                     int max_bin = 6);

/// Runs the full 88-job Facebook workload on a HOG deployment of
/// `max_nodes` glideins through HogRun, with the 1 Hz availability trace
/// (Fig. 5, Table IV) recorded over the workload window.
HogRunResult RunHogWorkload(int max_nodes, std::uint64_t seed,
                            hog::HogConfig config = {},
                            const fault::Scenario* scenario = nullptr,
                            HogRunOptions options = {});

/// Runs the workload on the dedicated Table III cluster.
workload::WorkloadResult RunClusterWorkload(std::uint64_t seed);

/// Arms `scenario` against a spun-up HOG cluster (all four layers as
/// targets) and returns the injector that keeps it scheduled — hold it for
/// the lifetime of the run. Returns nullptr for an empty scenario, so
/// benches can thread --scenario through unconditionally.
std::unique_ptr<fault::FaultInjector> ArmScenario(
    hog::HogCluster& cluster, const fault::Scenario& scenario);

/// The default OSG sites with owner churn disabled (no single-node
/// preemptions, no correlated bursts): the only node loss in a run on it
/// is the one the experiment injects.
hog::HogConfig QuietGrid();

/// Fig. 5c's unstable grid: busier owners and frequent higher-priority
/// bursts on the default OSG sites.
hog::HogConfig UnstableGrid();

/// Tasks of succeeded jobs — work that survived the run's faults.
double TasksCompleted(const mr::JobTracker& jobtracker);

/// `tasks` per nominal slot-hour: `nodes` requested glideins x the
/// default map + reduce slots per node x `response_s`. Using the nominal
/// (not surviving) node count charges a policy for the capacity faults
/// take away — winning it back is the game.
double GoodputPerSlotHour(double tasks, int nodes, double response_s);

}  // namespace hogsim::exp
