// The MapReduce master: job and attempt lifecycle, heartbeat-driven task
// assignment with node/site locality, speculative execution, per-job
// tracker blacklisting, lost-tracker recovery (including re-execution of
// completed maps whose output died with their node), and the §VI
// multi-copy extension.
//
// The assignment *policy* — which task a heartbeating tracker runs next —
// is pluggable: MrConfig::scheduler names a src/sched SchedulerPolicy
// ("fifo" by default, byte-identical to stock Hadoop 0.20), which the
// jobtracker feeds through lifecycle hooks and consults once per free
// slot per heartbeat. The mechanism (slot accounting, launches, reports,
// recovery) stays here.
//
// Like the namenode, the jobtracker lives on HOG's stable central server;
// every tasktracker interaction crosses the (possibly WAN) network.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/hdfs/namenode.h"
#include "src/hdfs/topology.h"
#include "src/health/liveness.h"
#include "src/mapreduce/tasktracker.h"
#include "src/mapreduce/types.h"
#include "src/net/flow_network.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/util/stats.h"

namespace hogsim::check {
class Auditor;
}  // namespace hogsim::check

namespace hogsim::health {
class Quarantine;
}  // namespace hogsim::health

namespace hogsim::sched {
class ClusterView;
class SchedulerPolicy;
struct Assignment;
}  // namespace hogsim::sched

namespace hogsim::mr {

enum class JobState { kRunning, kSucceeded, kFailed };

/// Scheduler's view of one task.
struct TaskInfo {
  TaskType type = TaskType::kMap;
  int index = 0;
  hdfs::BlockId block = hdfs::kInvalidBlock;  // maps only
  Bytes input_size = 0;
  // Input replica locations cached at submit time for locality decisions
  // (refreshing is unnecessary: staleness only costs locality, never
  // correctness — the read path re-resolves replicas).
  std::vector<net::NodeId> input_nodes;
  std::vector<std::string> input_racks;

  bool complete = false;
  std::vector<AttemptId> active_attempts;
  int failures = 0;

  // For completed maps: where the output lives (shuffle source).
  TrackerId completed_on = kInvalidTracker;
  Bytes output_bytes = 0;

  SimTime first_launch = -1;
  SimTime completed_at = -1;
};

/// Hadoop-style per-job counters, accumulated from successful attempts.
struct JobCounters {
  Bytes map_input_bytes = 0;
  Bytes local_input_bytes = 0;   // read from a node-local replica
  Bytes remote_input_bytes = 0;  // streamed from another datanode
  Bytes map_output_bytes = 0;
  Bytes shuffle_bytes = 0;
  Bytes reduce_output_bytes = 0;
};

struct JobInfo {
  JobId id = kInvalidJob;
  JobSpec spec;
  JobState state = JobState::kRunning;
  SimTime submitted = 0;
  SimTime finished = -1;
  hdfs::FileId output_file = hdfs::kInvalidFile;

  std::vector<TaskInfo> maps;
  std::vector<TaskInfo> reduces;
  std::vector<int> pending_maps;     // task indices still needing attempts
  std::vector<int> pending_reduces;
  int maps_completed = 0;
  int reduces_completed = 0;
  int running_map_attempts = 0;      // scheduler fast-path guards
  int running_reduce_attempts = 0;

  std::unordered_map<TrackerId, int> tracker_failures;
  std::unordered_set<TrackerId> blacklist;

  RunningStats map_durations;     // completed attempts, for speculation
  RunningStats reduce_durations;

  // Locality accounting for launched map attempts.
  int data_local_maps = 0;
  int rack_local_maps = 0;
  int remote_maps = 0;

  /// Delay-scheduling state: when this job first had to decline a
  /// non-local offer (-1 = not currently waiting).
  SimTime locality_wait_start = -1;

  JobCounters counters;

  /// Response time in the paper's sense (submission to completion), or -1.
  SimDuration ResponseTime() const {
    return finished >= 0 ? finished - submitted : -1;
  }
};

class JobTracker {
 public:
  /// Builds the scheduling policy from config.scheduler (see src/sched);
  /// throws std::invalid_argument on an unknown policy name.
  JobTracker(sim::Simulation& sim, net::FlowNetwork& net,
             hdfs::Namenode& namenode, net::NodeId master,
             hdfs::TopologyScript topology, MrConfig config = {});
  ~JobTracker();  // out-of-line: sched types are incomplete here

  /// Arms the lost-tracker monitor.
  void Start();

  // ---- Master availability (fault injection: like the namenode, the
  // jobtracker is a single point of failure on HOG's central server) ------

  /// Takes the jobtracker down: heartbeats are ignored (no scheduling, no
  /// liveness credit), the lost-tracker monitor stops, and tasktracker
  /// reports queue client-side until Restart() — Hadoop RPC clients retry,
  /// they do not drop results.
  void Crash();

  /// Brings the jobtracker back. Trackers whose daemons survived the
  /// outage are re-admitted as of now; dead ones are declared lost and
  /// their tasks rescheduled. Queued reports are then replayed in arrival
  /// order.
  void Restart();

  bool available() const { return available_; }

  // ---- Tasktracker lifecycle --------------------------------------------

  TrackerId RegisterTracker(TaskTracker& daemon);
  void Heartbeat(TrackerId id);

  // ---- Job client interface ----------------------------------------------

  /// Submits a job; one map task per input block. Returns its id.
  JobId SubmitJob(JobSpec spec);

  const JobInfo& job(JobId id) const { return jobs_[id]; }
  std::size_t job_count() const { return jobs_.size(); }
  bool AllJobsDone() const { return running_jobs_ == 0; }

  /// Attempt-lifecycle observer: launches, successes and failures, as the
  /// scheduler sees them (the policy conformance tests observe through it).
  struct AttemptEvent {
    enum class Kind { kLaunched, kSucceeded, kFailed };
    SimTime time = 0;
    Kind kind = Kind::kLaunched;
    JobId job = kInvalidJob;
    TaskType task_type = TaskType::kMap;
    int task_index = 0;
    AttemptId attempt = kInvalidAttempt;
    TrackerId tracker = kInvalidTracker;
    bool speculative = false;
    FailureKind failure = FailureKind::kNone;
  };
  void set_on_attempt_event(std::function<void(const AttemptEvent&)> cb) {
    on_attempt_event_ = std::move(cb);
  }

  // ---- Tasktracker -> jobtracker RPCs -------------------------------------

  void ReportAttempt(const AttemptReport& report);

  /// A reduce could not fetch map `map_index` of `job` from its recorded
  /// location; if the location is indeed gone, the map re-executes.
  void ReportFetchFailure(JobId job, int map_index);

  /// Shuffle-time validity check: true while map `map_index`'s output is
  /// still served from `source` (its tracker is alive and not a zombie).
  bool MapOutputAvailable(JobId job, int map_index, net::NodeId source) const;

  // ---- Introspection --------------------------------------------------------

  /// Attaches the cluster health manager (flap history, quarantine).
  /// Optional: a null health pointer means no quarantine and no flap
  /// accounting, exactly the pre-health behavior.
  void set_health(health::Quarantine* health) { health_ = health; }

  /// The jobtracker's belief, driven by heartbeats (src/health/liveness.h).
  bool TrackerAlive(TrackerId id) const { return liveness_.alive(id); }
  int live_trackers() const { return liveness_.live(); }
  /// Blacklist entries across running jobs (the mr.blacklist.active gauge).
  int blacklisted_entries() const { return blacklist_active_; }
  std::uint64_t trackers_declared_lost() const {
    return liveness_.declared();
  }
  std::uint64_t maps_reexecuted() const { return ins_.map_reexecuted.value(); }
  std::uint64_t speculative_attempts() const {
    return ins_.attempt_speculative.value();
  }
  std::uint64_t attempts_launched() const {
    return ins_.attempt_launched.value();
  }
  /// Attempts killed by scheduler preemption (no task failure charged).
  std::uint64_t attempts_preempted() const {
    return ins_.attempt_preempted.value();
  }
  const MrConfig& config() const { return config_; }
  net::NodeId master_node() const { return master_; }

  struct TrackerEntry {
    TaskTracker* daemon = nullptr;
    std::string hostname;
    std::string rack;
    net::NodeId net_node = net::kInvalidNode;
    int used_map_slots = 0;
    int used_reduce_slots = 0;
    std::unordered_set<AttemptId> attempts;
    /// (job, map index) of completed maps whose output lives on this
    /// tracker. Makes DeclareLost's §III.B redistribution O(outputs on the
    /// lost node) instead of a scan over every map of every job. Ordered,
    /// so re-execution order matches the legacy jobs-then-index scan.
    std::set<std::pair<JobId, int>> completed_maps;
  };
  const TrackerEntry& tracker(TrackerId id) const { return trackers_[id]; }
  std::size_t tracker_count() const { return trackers_.size(); }

 private:
  // The invariant auditor (src/check) reads — never mutates — tracker
  // entries, job state, and the attempt ledger to cross-check slot and
  // attempt accounting.
  friend class ::hogsim::check::Auditor;
  // The scheduling facade (src/sched): read access for policies plus the
  // two sanctioned mutations — pending-list pruning inside picks and
  // PreemptAttempt.
  friend class ::hogsim::sched::ClusterView;

  struct AttemptRecord {
    JobId job = kInvalidJob;
    TaskType type = TaskType::kMap;
    int task_index = 0;
    TrackerId tracker = kInvalidTracker;
    SimTime started = 0;
    bool speculative = false;
    int locality = 2;  // maps: 0 node-local, 1 rack-local, 2 remote
  };

  // Observability handles, registered once at construction (obs/metrics.h).
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& m)
        : attempt_launched(m.GetCounter("mr.attempt.launched")),
          attempt_succeeded(m.GetCounter("mr.attempt.succeeded")),
          attempt_failed(m.GetCounter("mr.attempt.failed")),
          attempt_speculative(m.GetCounter("mr.attempt.speculative")),
          attempt_preempted(m.GetCounter("mr.attempt.preempted")),
          map_local(m.GetCounter("mr.map.local")),
          map_rack(m.GetCounter("mr.map.rack")),
          map_remote(m.GetCounter("mr.map.remote")),
          map_reexecuted(m.GetCounter("mr.map.reexecuted")),
          job_submitted(m.GetCounter("mr.job.submitted")),
          job_succeeded(m.GetCounter("mr.job.succeeded")),
          job_failed(m.GetCounter("mr.job.failed")),
          jobs_running(m.GetGauge("mr.jobs.running")),
          blacklist_active(m.GetGauge("mr.blacklist.active")),
          attempt_duration_s(m.GetHistogram("mr.attempt.duration_s")) {}
    obs::Counter& attempt_launched;
    obs::Counter& attempt_succeeded;
    obs::Counter& attempt_failed;
    obs::Counter& attempt_speculative;
    obs::Counter& attempt_preempted;
    obs::Counter& map_local;
    obs::Counter& map_rack;
    obs::Counter& map_remote;
    obs::Counter& map_reexecuted;
    obs::Counter& job_submitted;
    obs::Counter& job_succeeded;
    obs::Counter& job_failed;
    obs::Gauge& jobs_running;
    obs::Gauge& blacklist_active;
    obs::Histogram& attempt_duration_s;
  };

  /// Declares the tracker lost (expiry, or a restart pruning a tracker
  /// that died during the blackout): requeues its attempts, re-executes
  /// the map outputs it held and forgives it.
  void DeclareLost(TrackerId id);
  /// Drops the tracker's blacklist and failure-count entries from every
  /// running job, keeping mr.blacklist.active in step. Called when the
  /// tracker is declared lost (its process — and thus the history those
  /// entries describe — is gone) and, defensively, when a lost tracker's
  /// heartbeat revives it (the glidein reincarnated).
  void ForgiveTracker(TrackerId id);
  /// Deterministic post-blackout re-admission: rebuilds every running
  /// job's pending lists as the sorted set of tasks that need attempts, so
  /// post-restart scheduling order does not depend on the arrival order of
  /// the replayed reports.
  void ReadmitJobs();
  /// Retires a finished job's blacklist entries from the active gauge.
  void RetireBlacklist(JobInfo& job);
  /// Drops a terminal job's entries from the per-tracker completed-map
  /// index (its outputs can never be reverted again).
  void ReleaseCompletedMapIndex(JobInfo& job);
  void ScheduleOn(TrackerId id);  // per-heartbeat task assignment
  bool AssignMap(TrackerId id);
  bool AssignReduce(TrackerId id);
  /// `locality` labels map attempts (0 node-local / 1 rack-local /
  /// 2 remote) for accounting and trace spans; reduces always pass 2.
  void LaunchAttempt(JobInfo& job, TaskInfo& task, TrackerId tracker,
                     bool speculative, int locality = 2);
  /// Kills a running attempt and requeues its task without charging a
  /// task failure or blacklist strike (scheduler preemption, via
  /// sched::ClusterView). No attempt event is emitted, matching
  /// KillOtherAttempts' treatment of losing speculative copies.
  void PreemptAttempt(AttemptId id);
  void HandleMapComplete(const AttemptReport& report);
  void HandleReduceComplete(const AttemptReport& report);
  void HandleFailure(const AttemptReport& report);
  void FinishAttempt(AttemptId id);  // bookkeeping removal
  void KillOtherAttempts(JobInfo& job, TaskInfo& task, AttemptId winner);
  void RevertCompletedMap(JobInfo& job, int map_index);
  void MaybeCompleteJob(JobInfo& job);
  void FailJob(JobInfo& job);
  void NotifyReducesOfMap(JobInfo& job, const TaskInfo& map);
  void SendMapSnapshot(JobInfo& job, AttemptId reduce_attempt,
                       TrackerId tracker);
  bool TaskNeedsAttempt(const JobInfo& job, const TaskInfo& task) const;

  sim::Simulation& sim_;
  net::FlowNetwork& net_;
  hdfs::Namenode& nn_;
  net::NodeId master_;
  hdfs::TopologyScript topology_;
  MrConfig config_;
  Instruments ins_;

  std::vector<TrackerEntry> trackers_;
  std::vector<JobInfo> jobs_;
  std::unordered_map<AttemptId, AttemptRecord> attempts_;
  AttemptId next_attempt_ = 1;

  // The pluggable task-selection policy (src/sched) and its facade over
  // this jobtracker. Job-ordering queues live inside the policy.
  std::unique_ptr<sched::ClusterView> view_;
  std::unique_ptr<sched::SchedulerPolicy> policy_;

  // Tracker expiry (MrConfig::tracker_expiry, ::detector).
  health::Liveness liveness_;
  // Cluster health manager (flaps, quarantine); owned by HogCluster.
  health::Quarantine* health_ = nullptr;

  bool available_ = true;
  // RPCs that arrived during a blackout, replayed in order on Restart().
  std::vector<AttemptReport> queued_reports_;
  std::vector<std::pair<JobId, int>> queued_fetch_failures_;
  int running_jobs_ = 0;
  int blacklist_active_ = 0;  // blacklist entries across running jobs
  std::function<void(const AttemptEvent&)> on_attempt_event_;
};

}  // namespace hogsim::mr
