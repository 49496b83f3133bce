#include "src/exp/paper_runs.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/baseline/dedicated_cluster.h"
#include "src/check/auditor.h"
#include "src/fault/injector.h"
#include "src/util/log.h"
#include "src/workload/facebook.h"

namespace hogsim::exp {

namespace {

hog::HogConfig WithOverrides(hog::HogConfig config,
                             const HogRunOptions& options) {
  if (options.repl_target > 0) {
    config.repl.availability_target = options.repl_target;
  }
  if (!options.topology.empty()) config.net.topology = options.topology;
  if (!options.detector.empty()) {
    config.hdfs.detector = config.mr.detector = options.detector;
  }
  if (!options.scheduler.empty()) config.mr.scheduler = options.scheduler;
  return config;
}

}  // namespace

HogRun::HogRun(std::uint64_t seed, hog::HogConfig config,
               const HogRunOptions& options)
    : options_(options),
      cluster_(seed, WithOverrides(std::move(config), options)),
      runner_(cluster_.sim(), cluster_.jobtracker(), cluster_.namenode()) {
  if (options_.audit) {
    check::Auditor::Options aopts;
    aopts.fail_fast = options_.audit_fail_fast;
    aopts.period = options_.audit_period;
    auditor_ = std::make_unique<check::Auditor>(
        cluster_.sim(), &cluster_.namenode(), &cluster_.jobtracker(),
        &cluster_.grid(), aopts);
    // With the adaptive controller armed, the repl-floor invariants ride
    // along (no-op when repl_controller() is null).
    auditor_->set_repl_controller(cluster_.repl_controller());
    auditor_->Start();
  }
}

HogRun::~HogRun() = default;

void HogRun::RequireSpinUp(int nodes) {
  if (SpinUp(nodes)) return;
  throw std::runtime_error(
      "spin-up missed its target: " +
      std::to_string(cluster_.grid().running_nodes()) + " of " +
      std::to_string(nodes) + " nodes running after " +
      std::to_string(2 * kSpinUpDeadline / kHour) + " h");
}

void HogRun::Prepare(std::vector<workload::ScheduledJob> schedule) {
  schedule_ = std::move(schedule);
  runner_.PrepareInputs(schedule_);
}

void HogRun::Submit(const fault::Scenario* scenario) {
  if (scenario != nullptr) injector_ = ArmScenario(cluster_, *scenario);
  preemptions_before_ = cluster_.grid().preemptions();
  result_.window_start = cluster_.sim().now();
  runner_.SubmitAll(schedule_);
}

const workload::WorkloadResult& HogRun::Run(SimDuration limit) {
  result_.workload = runner_.Run(cluster_.sim().now() + limit);
  result_.window_end =
      result_.window_start + FromSeconds(result_.workload.response_time_s);
  result_.preemptions = cluster_.grid().preemptions() - preemptions_before_;
  result_.maps_reexecuted = cluster_.jobtracker().maps_reexecuted();
  if (injector_ != nullptr) {
    result_.faults_injected = injector_->injected();
    result_.faults_skipped = injector_->skipped();
  }
  return result_.workload;
}

void HogRun::Drain() {
  // Healing drain: the workload is done, but the last storm may have left
  // the replication queue non-empty. Time-to-full-replication is the
  // paper's recovery metric — how long until every surviving block is back
  // at target replication.
  const SimTime drain_start = cluster_.sim().now();
  hdfs::Namenode& nn = cluster_.namenode();
  const bool drained = workload::RunSimUntil(
      cluster_.sim(), [&nn] { return nn.under_replicated() == 0; },
      drain_start + options_.drain_deadline, 5 * kSecond);
  const SimTime drain_end = cluster_.sim().now();
  // Committed outputs of succeeded jobs must still exist somewhere.
  const mr::JobTracker& jt = cluster_.jobtracker();
  for (std::size_t j = 0; j < jt.job_count(); ++j) {
    const mr::JobInfo& job = jt.job(static_cast<mr::JobId>(j));
    if (job.state != mr::JobState::kSucceeded ||
        job.output_file == hdfs::kInvalidFile) {
      continue;
    }
    for (const hdfs::BlockLocation& loc : nn.GetFileBlocks(job.output_file)) {
      if (!loc.datanodes.empty()) continue;
      // An uncommitted holder-less block is an abandoned in-flight write
      // (e.g. a killed speculative attempt), not acknowledged data.
      if (!nn.BlockCommitted(loc.block)) {
        HOG_LOG(kInfo, cluster_.sim().now(), "exp")
            << "ignoring uncommitted orphan block " << loc.block << " in "
            << nn.FileName(job.output_file);
        continue;
      }
      HOG_LOG(kWarn, cluster_.sim().now(), "exp")
          << "committed output block " << loc.block << " of "
          << nn.FileName(job.output_file) << " has no live replica";
      ++result_.outputs_lost;
    }
  }
  // A block with no live replica is not under-replicated (there is nothing
  // to copy), so a drained queue alone does not mean the data survived.
  result_.fully_replicated = drained && result_.outputs_lost == 0;
  if (result_.fully_replicated) {
    result_.time_to_full_replication_s = ToSeconds(drain_end - drain_start);
  }
}

HogRunResult HogRun::Finish() {
  if (options_.drain_deadline > 0) Drain();

  // Storage accounting over the settled cluster: one pass each, so the
  // bytes-stored vs availability tradeoff is measurable in every bench.
  hdfs::Namenode& nn = cluster_.namenode();
  result_.bytes_stored = nn.StoredReplicaBytes();
  result_.bytes_logical = nn.LogicalBytes();
  result_.repair_bytes = nn.replication_bytes();
  if (hdfs::ReplController* ctl = cluster_.repl_controller()) {
    result_.repl_targets_raised = ctl->targets_raised();
    result_.repl_targets_lowered = ctl->targets_lowered();
    result_.repl_excess_removed = ctl->excess_removed();
  }

  if (auditor_ != nullptr) {
    auditor_->AuditNow();  // end-of-run pass over the settled cluster
    result_.audit_passes = auditor_->audits_run();
    result_.audit_violations = auditor_->violations();
  }
  return result_;
}

std::vector<workload::ScheduledJob> FacebookSchedule(std::uint64_t seed,
                                                     bool fast, int max_bin) {
  Rng rng(seed);
  std::vector<workload::ScheduledJob> schedule =
      workload::GenerateFacebookSchedule(rng);
  std::erase_if(schedule, [max_bin](const workload::ScheduledJob& job) {
    return job.bin > max_bin;
  });
  if (fast) schedule.resize(schedule.size() / 2);
  return schedule;
}

HogRunResult RunHogWorkload(int max_nodes, std::uint64_t seed,
                            hog::HogConfig config,
                            const fault::Scenario* scenario,
                            HogRunOptions options) {
  HogRun run(seed, std::move(config), options);
  if (run.SpinUp(max_nodes)) {
    run.Prepare(FacebookSchedule(seed));
    run.cluster().StartAvailabilityTrace();
    run.Submit(scenario);
    run.Run();
  }
  HogRunResult result = run.Finish();
  if (result.reached_target) {
    const StepSeries& trace = run.cluster().reported_nodes();
    result.reported_nodes = trace;
    result.area_beneath_curve =
        trace.AreaUnder(result.window_start, result.window_end);
    result.mean_reported_nodes =
        trace.MeanOver(result.window_start, result.window_end);
  }
  return result;
}

std::unique_ptr<fault::FaultInjector> ArmScenario(
    hog::HogCluster& cluster, const fault::Scenario& scenario) {
  if (scenario.empty()) return nullptr;
  auto injector = std::make_unique<fault::FaultInjector>(
      cluster.sim(),
      fault::InjectorTargets{&cluster.grid(), &cluster.network(),
                             &cluster.namenode(), &cluster.jobtracker()},
      scenario);
  injector->Arm();
  return injector;
}

workload::WorkloadResult RunClusterWorkload(std::uint64_t seed) {
  baseline::DedicatedCluster cluster(seed);
  const auto schedule = FacebookSchedule(seed);
  workload::WorkloadRunner runner(cluster.sim(), cluster.jobtracker(),
                                  cluster.namenode());
  runner.PrepareInputs(schedule);
  runner.SubmitAll(schedule);
  return runner.Run(kRunDeadline);
}

hog::HogConfig QuietGrid() {
  hog::HogConfig config;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 1e9;
    site.burst_interval_s = 1e9;
    site.burst_fraction = 0;
  }
  return config;
}

hog::HogConfig UnstableGrid() {
  hog::HogConfig config;
  config.sites = hog::DefaultOsgSites();
  for (auto& site : config.sites) {
    site.node_mtbf_s = 3200.0;      // busier owners
    site.burst_interval_s = 600.0;  // frequent higher-priority bursts
    site.burst_fraction = 0.18;
  }
  return config;
}

double TasksCompleted(const mr::JobTracker& jobtracker) {
  double tasks = 0;
  for (std::size_t j = 0; j < jobtracker.job_count(); ++j) {
    const mr::JobInfo& job = jobtracker.job(static_cast<mr::JobId>(j));
    if (job.state != mr::JobState::kSucceeded) continue;
    tasks += static_cast<double>(job.maps.size() + job.reduces.size());
  }
  return tasks;
}

double GoodputPerSlotHour(double tasks, int nodes, double response_s) {
  const hog::HogConfig defaults;
  const double slots_per_node =
      defaults.map_slots_per_node + defaults.reduce_slots_per_node;
  const double slot_hours = nodes * slots_per_node * (response_s / 3600.0);
  return slot_hours > 0 ? tasks / slot_hours : 0.0;
}

}  // namespace hogsim::exp
