#include "src/mapreduce/jobtracker.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/health/quarantine.h"
#include "src/sched/policy.h"
#include "src/util/log.h"

namespace hogsim::mr {

constexpr health::LivenessNames kLivenessNames{
    "mr", "trackers.live", "tracker.lost", "mr.trackers.live",
    "mr.tracker.lost", "mr.tracker.detection_latency_s"};

JobTracker::JobTracker(sim::Simulation& sim, net::FlowNetwork& net,
                       hdfs::Namenode& namenode, net::NodeId master,
                       hdfs::TopologyScript topology, MrConfig config)
    : sim_(sim),
      net_(net),
      nn_(namenode),
      master_(master),
      topology_(std::move(topology)),
      config_(std::move(config)),
      ins_(sim.obs().metrics()),
      view_(std::make_unique<sched::ClusterView>(*this)),
      policy_(sched::CreatePolicy(config_.scheduler)),
      liveness_(sim, config_.detector, config_.tracker_expiry, kLivenessNames,
                [this](TrackerId id) { DeclareLost(id); }) {
  assert(topology_);
  policy_->Attach(*view_);
}

JobTracker::~JobTracker() = default;

namespace {

// Span names are static strings (the tracer stores pointers, not copies);
// the name encodes task kind, locality tier, and speculation.
const char* AttemptSpanName(TaskType type, int locality, bool speculative) {
  if (type == TaskType::kReduce) return speculative ? "reduce.spec" : "reduce";
  switch (locality) {
    case 0: return speculative ? "map.local.spec" : "map.local";
    case 1: return speculative ? "map.rack.spec" : "map.rack";
    default: return speculative ? "map.remote.spec" : "map.remote";
  }
}

}  // namespace

void JobTracker::Start() { liveness_.Start(); }

// ---- Tracker lifecycle --------------------------------------------------------

TrackerId JobTracker::RegisterTracker(TaskTracker& daemon) {
  TrackerEntry entry;
  entry.daemon = &daemon;
  entry.hostname = daemon.hostname();
  entry.rack = topology_(daemon.hostname());
  entry.net_node = daemon.net_node();
  trackers_.push_back(std::move(entry));
  const TrackerId id = static_cast<TrackerId>(trackers_.size() - 1);
  liveness_.Register(id);
  policy_->OnTrackerRegistered(id);
  return id;
}

void JobTracker::Crash() {
  if (!available_) return;
  available_ = false;
  liveness_.Stop();
  sim_.obs().tracer().EmitInstant("mr", "jobtracker.crash", sim_.now(), 0);
  HOG_LOG(kInfo, sim_.now(), "jobtracker") << "crashed";
}

void JobTracker::Restart() {
  if (available_) return;
  available_ = true;
  sim_.obs().tracer().EmitInstant("mr", "jobtracker.restart", sim_.now(), 0);
  HOG_LOG(kInfo, sim_.now(), "jobtracker") << "restarted";
  // Re-admit trackers whose daemons survived the outage: their first
  // post-restart heartbeat would do this anyway, so give them liveness
  // credit as of now instead of racing the expiry check. The rest are lost.
  for (TrackerId id = 0; id < trackers_.size(); ++id) {
    const TaskTracker* daemon = trackers_[id].daemon;
    if (daemon != nullptr && daemon->process_alive()) {
      if (liveness_.Readmit(id)) ForgiveTracker(id);
    } else {
      DeclareLost(id);
    }
  }
  // Replay the RPCs that queued while we were down, in arrival order.
  const std::vector<AttemptReport> reports = std::move(queued_reports_);
  queued_reports_.clear();
  const auto fetch_failures = std::move(queued_fetch_failures_);
  queued_fetch_failures_.clear();
  for (const AttemptReport& report : reports) ReportAttempt(report);
  for (const auto& [job, map_index] : fetch_failures) {
    ReportFetchFailure(job, map_index);
  }
  // Normalize the in-flight jobs before scheduling resumes, so the first
  // post-restart heartbeat sees the same pending order regardless of how
  // the blackout interleaved losses and queued reports.
  ReadmitJobs();
  Start();
}

void JobTracker::ForgiveTracker(TrackerId id) {
  for (JobInfo& job : jobs_) {
    if (job.state != JobState::kRunning) continue;
    job.tracker_failures.erase(id);
    if (job.blacklist.erase(id) > 0) {
      --blacklist_active_;
    }
  }
  ins_.blacklist_active.Set(blacklist_active_);
}

void JobTracker::ReadmitJobs() {
  for (JobInfo& job : jobs_) {
    if (job.state != JobState::kRunning) continue;
    const auto rebuild = [&job](std::vector<int>& pending,
                                std::vector<TaskInfo>& tasks,
                                const auto& needs) {
      pending.clear();
      for (TaskInfo& task : tasks) {
        if (needs(job, task)) pending.push_back(task.index);
      }
    };
    const auto needs = [this](const JobInfo& j, const TaskInfo& t) {
      return TaskNeedsAttempt(j, t);
    };
    rebuild(job.pending_maps, job.maps, needs);
    rebuild(job.pending_reduces, job.reduces, needs);
  }
}

void JobTracker::RetireBlacklist(JobInfo& job) {
  blacklist_active_ -= static_cast<int>(job.blacklist.size());
  ins_.blacklist_active.Set(blacklist_active_);
}

void JobTracker::ReleaseCompletedMapIndex(JobInfo& job) {
  // A terminal job's map outputs can no longer be reverted, so drop its
  // entries from the per-tracker index (else it grows with jobs ever run).
  for (const TaskInfo& map : job.maps) {
    if (map.complete && map.completed_on != kInvalidTracker) {
      trackers_[map.completed_on].completed_maps.erase({job.id, map.index});
    }
  }
}

void JobTracker::Heartbeat(TrackerId id) {
  if (!available_) return;  // blackout: the RPC times out unanswered
  if (id >= trackers_.size()) return;
  const net::NodeId node = trackers_[id].net_node;
  if (health_ != nullptr) health_->OnHeartbeat(node, sim_.now());
  if (liveness_.Heartbeat(id)) {
    // Re-registration after expiry: the glidein reincarnated, so its
    // blacklist entries describe a process that no longer exists.
    ForgiveTracker(id);
    // ...but the lost-then-revived cycle itself is durable evidence: a
    // flapping node keeps its flap history (the quarantine keys off it).
    if (health_ != nullptr) health_->OnFlap(node);
  }
  ScheduleOn(id);
}

void JobTracker::DeclareLost(TrackerId id) {
  if (!liveness_.Declare(id)) return;
  TrackerEntry& entry = trackers_[id];
  HOG_LOG(kInfo, sim_.now(), "jobtracker")
      << entry.hostname << " lost (" << entry.attempts.size()
      << " running attempts)";

  // Running attempts on the tracker vanish; their tasks go back to pending.
  const std::vector<AttemptId> lost(entry.attempts.begin(),
                                    entry.attempts.end());
  for (AttemptId a : lost) {
    auto it = attempts_.find(a);
    if (it == attempts_.end()) continue;
    const AttemptRecord record = it->second;
    FinishAttempt(a);
    JobInfo& job = jobs_[record.job];
    if (job.state != JobState::kRunning) continue;
    TaskInfo& task = record.type == TaskType::kMap
                         ? job.maps[record.task_index]
                         : job.reduces[record.task_index];
    if (!task.complete && TaskNeedsAttempt(job, task)) {
      auto& pending = record.type == TaskType::kMap ? job.pending_maps
                                                    : job.pending_reduces;
      if (std::find(pending.begin(), pending.end(), record.task_index) ==
          pending.end()) {
        pending.push_back(record.task_index);
      }
    }
  }

  // Completed map output on the node is gone: re-execute those maps for
  // every still-running job (§III.B — redistributing processing). The
  // per-tracker index pins this at O(outputs on the lost node); the set's
  // (job, index) order matches the legacy jobs-then-maps scan order.
  const std::vector<std::pair<JobId, int>> outputs(
      entry.completed_maps.begin(), entry.completed_maps.end());
  entry.completed_maps.clear();
  for (const auto& [job_id, map_index] : outputs) {
    JobInfo& job = jobs_[job_id];
    if (job.state != JobState::kRunning) continue;
    RevertCompletedMap(job, map_index);
  }
  entry.used_map_slots = 0;
  entry.used_reduce_slots = 0;

  // The glidein behind this tracker is gone, so per-job blacklist entries
  // describe a dead process: prune them (and their failure counts) now,
  // decrementing mr.blacklist.active. Previously this only happened on the
  // reviving heartbeat, so a blacklisted tracker pruned during a blackout
  // restart left the gauge stuck counting dead processes. Scheduling is
  // unaffected: the blacklist is only consulted for alive trackers, and a
  // revival always passed through ForgiveTracker anyway.
  ForgiveTracker(id);
  policy_->OnTrackerLost(id);
}

// ---- Job submission -----------------------------------------------------------

JobId JobTracker::SubmitJob(JobSpec spec) {
  JobInfo job;
  job.id = static_cast<JobId>(jobs_.size());
  job.submitted = sim_.now();
  job.output_file = nn_.CreateFile(spec.name + "-out",
                                   spec.output_replication);

  const auto blocks = nn_.GetFileBlocks(spec.input);
  job.maps.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    TaskInfo task;
    task.type = TaskType::kMap;
    task.index = static_cast<int>(i);
    task.block = blocks[i].block;
    task.input_size = blocks[i].size;
    task.input_nodes = blocks[i].net_nodes;
    task.input_racks = blocks[i].racks;
    job.maps.push_back(std::move(task));
    job.pending_maps.push_back(static_cast<int>(i));
  }
  for (int r = 0; r < spec.num_reduces; ++r) {
    TaskInfo task;
    task.type = TaskType::kReduce;
    task.index = r;
    job.reduces.push_back(std::move(task));
    job.pending_reduces.push_back(r);
  }
  job.spec = std::move(spec);
  jobs_.push_back(std::move(job));
  policy_->OnJobSubmitted(jobs_.back().id);
  ++running_jobs_;
  ins_.job_submitted.Add();
  ins_.jobs_running.Set(running_jobs_);
  // A job with no work completes immediately.
  MaybeCompleteJob(jobs_.back());
  return jobs_.back().id;
}

// ---- Scheduling -----------------------------------------------------------------

bool JobTracker::TaskNeedsAttempt(const JobInfo& job,
                                  const TaskInfo& task) const {
  return job.state == JobState::kRunning && !task.complete &&
         static_cast<int>(task.active_attempts.size()) < config_.task_copies &&
         task.failures < config_.max_attempts;
}

void JobTracker::ScheduleOn(TrackerId id) {
  TrackerEntry& entry = trackers_[id];
  if (!liveness_.alive(id) || entry.daemon == nullptr ||
      !entry.daemon->process_alive()) {
    return;
  }
  // Quarantine: a probated node gets no new work from any policy (its
  // running attempts finish or get speculated elsewhere). ClusterView
  // additionally exposes the flag so policies can steer before this
  // backstop. Constant-false when quarantine is off (the default).
  if (health_ != nullptr && health_->Probated(entry.net_node)) return;
  // Hadoop 0.20 assigns at most one map and one reduce per heartbeat.
  AssignMap(id);
  AssignReduce(id);
}

// Task selection lives in the policy (src/sched); the tracker keeps slot
// admission, locality accounting, and the launch itself.

bool JobTracker::AssignMap(TrackerId id) {
  TrackerEntry& entry = trackers_[id];
  if (entry.used_map_slots >= entry.daemon->map_slots()) return false;
  const sched::Assignment pick = policy_->PickMap(id);
  if (!pick.valid()) return false;
  JobInfo& job = jobs_[pick.job];
  // Locality accounting covers primary launches only; speculative copies
  // are placed wherever a slot is free.
  if (!pick.speculative) {
    switch (pick.locality) {
      case 0:
        ++job.data_local_maps;
        ins_.map_local.Add();
        break;
      case 1:
        ++job.rack_local_maps;
        ins_.map_rack.Add();
        break;
      default:
        ++job.remote_maps;
        ins_.map_remote.Add();
        break;
    }
  }
  LaunchAttempt(job, job.maps[pick.task_index], id, pick.speculative,
                pick.locality);
  return true;
}

bool JobTracker::AssignReduce(TrackerId id) {
  TrackerEntry& entry = trackers_[id];
  if (entry.used_reduce_slots >= entry.daemon->reduce_slots()) return false;
  const sched::Assignment pick = policy_->PickReduce(id);
  if (!pick.valid()) return false;
  JobInfo& job = jobs_[pick.job];
  LaunchAttempt(job, job.reduces[pick.task_index], id, pick.speculative);
  return true;
}

void JobTracker::LaunchAttempt(JobInfo& job, TaskInfo& task, TrackerId tracker,
                               bool speculative, int locality) {
  TrackerEntry& entry = trackers_[tracker];
  const AttemptId id = next_attempt_++;
  AttemptRecord record;
  record.job = job.id;
  record.type = task.type;
  record.task_index = task.index;
  record.tracker = tracker;
  record.started = sim_.now();
  record.speculative = speculative;
  record.locality = locality;
  attempts_.emplace(id, record);
  entry.attempts.insert(id);
  task.active_attempts.push_back(id);
  if (task.type == TaskType::kMap) {
    ++job.running_map_attempts;
  } else {
    ++job.running_reduce_attempts;
  }
  if (task.first_launch < 0) task.first_launch = sim_.now();
  ins_.attempt_launched.Add();
  if (speculative) ins_.attempt_speculative.Add();
  const AttemptEvent launched{sim_.now(),  AttemptEvent::Kind::kLaunched,
                              job.id,      task.type,
                              task.index,  id,
                              tracker,     speculative,
                              FailureKind::kNone};
  policy_->OnAttemptEvent(launched);
  if (on_attempt_event_) on_attempt_event_(launched);

  const SimDuration latency = net_.Latency(master_, entry.net_node);
  TaskTracker* daemon = entry.daemon;
  if (task.type == TaskType::kMap) {
    ++entry.used_map_slots;
    MapAttemptSpec spec;
    spec.attempt = id;
    spec.job = job.id;
    spec.task_index = task.index;
    spec.block = task.block;
    spec.input_size = task.input_size;
    spec.selectivity = job.spec.map_selectivity;
    spec.compute_rate = job.spec.map_compute_rate;
    sim_.ScheduleAfter(latency,
                       [daemon, spec] { daemon->StartMapAttempt(spec); });
  } else {
    ++entry.used_reduce_slots;
    ReduceAttemptSpec spec;
    spec.attempt = id;
    spec.job = job.id;
    spec.task_index = task.index;
    spec.num_maps = static_cast<int>(job.maps.size());
    spec.num_reduces = static_cast<int>(job.reduces.size());
    spec.selectivity = job.spec.reduce_selectivity;
    spec.compute_rate = job.spec.reduce_compute_rate;
    spec.output_file = job.output_file;
    sim_.ScheduleAfter(latency,
                       [daemon, spec] { daemon->StartReduceAttempt(spec); });
    SendMapSnapshot(job, id, tracker);
  }
}

void JobTracker::SendMapSnapshot(JobInfo& job, AttemptId reduce_attempt,
                                 TrackerId tracker) {
  TrackerEntry& entry = trackers_[tracker];
  const SimDuration latency = net_.Latency(master_, entry.net_node);
  TaskTracker* daemon = entry.daemon;
  const int num_reduces = static_cast<int>(job.reduces.size());
  for (const TaskInfo& map : job.maps) {
    if (!map.complete || map.completed_on == kInvalidTracker) continue;
    const net::NodeId source = trackers_[map.completed_on].net_node;
    const Bytes partition =
        num_reduces > 0 ? map.output_bytes / num_reduces : 0;
    const int map_index = map.index;
    sim_.ScheduleAfter(latency, [daemon, reduce_attempt, map_index, source,
                                 partition] {
      daemon->NotifyMapComplete(reduce_attempt, map_index, source, partition);
    });
  }
}

void JobTracker::NotifyReducesOfMap(JobInfo& job, const TaskInfo& map) {
  if (job.reduces.empty() || map.completed_on == kInvalidTracker) return;
  const net::NodeId source = trackers_[map.completed_on].net_node;
  const Bytes partition =
      map.output_bytes / static_cast<int>(job.reduces.size());
  for (const TaskInfo& reduce : job.reduces) {
    for (AttemptId a : reduce.active_attempts) {
      auto it = attempts_.find(a);
      if (it == attempts_.end()) continue;
      const TrackerId tracker = it->second.tracker;
      TrackerEntry& entry = trackers_[tracker];
      if (!liveness_.alive(tracker) || entry.daemon == nullptr) continue;
      const SimDuration latency = net_.Latency(master_, entry.net_node);
      TaskTracker* daemon = entry.daemon;
      const int map_index = map.index;
      sim_.ScheduleAfter(latency, [daemon, a, map_index, source, partition] {
        daemon->NotifyMapComplete(a, map_index, source, partition);
      });
    }
  }
}

// ---- Reports ----------------------------------------------------------------------

void JobTracker::ReportAttempt(const AttemptReport& report) {
  if (!available_) {
    // Blackout: the tasktracker's RPC client retries until the master is
    // back, so the result is delayed, not dropped.
    queued_reports_.push_back(report);
    return;
  }
  auto it = attempts_.find(report.attempt);
  if (it == attempts_.end()) return;  // killed attempt's stale report
  {
    const AttemptRecord& record = it->second;
    (report.success ? ins_.attempt_succeeded : ins_.attempt_failed).Add();
    ins_.attempt_duration_s.Observe(ToSeconds(sim_.now() - record.started));
    if (report.success && record.type == TaskType::kMap &&
        health_ != nullptr) {
      // Successful map wall time vs site peers is the quarantine's
      // gray-degradation signal. Maps only: a reduce's wall time is
      // dominated by waiting for the shuffle, so it is near-identical
      // across nodes and would drown the per-node signal.
      health_->OnTaskDuration(trackers_[record.tracker].net_node,
                              ToSeconds(sim_.now() - record.started));
    }
    // One span per finished attempt; tid = tracker, so chrome://tracing
    // shows a per-node lane of everything that node executed.
    sim_.obs().tracer().EmitSpan(
        "mr", AttemptSpanName(record.type, record.locality, record.speculative),
        record.started, sim_.now() - record.started, record.tracker);
  }
  const AttemptEvent finished{sim_.now(),
                              report.success ? AttemptEvent::Kind::kSucceeded
                                             : AttemptEvent::Kind::kFailed,
                              report.job,
                              report.type,
                              report.task_index,
                              report.attempt,
                              it->second.tracker,
                              it->second.speculative,
                              report.failure};
  policy_->OnAttemptEvent(finished);
  if (on_attempt_event_) on_attempt_event_(finished);
  if (report.success) {
    if (report.type == TaskType::kMap) {
      HandleMapComplete(report);
    } else {
      HandleReduceComplete(report);
    }
  } else {
    HandleFailure(report);
  }
}

void JobTracker::FinishAttempt(AttemptId id) {
  auto it = attempts_.find(id);
  if (it == attempts_.end()) return;
  const AttemptRecord& record = it->second;
  TrackerEntry& entry = trackers_[record.tracker];
  if (entry.attempts.erase(id) > 0) {
    if (record.type == TaskType::kMap) {
      entry.used_map_slots = std::max(0, entry.used_map_slots - 1);
    } else {
      entry.used_reduce_slots = std::max(0, entry.used_reduce_slots - 1);
    }
  }
  JobInfo& job = jobs_[record.job];
  TaskInfo& task = record.type == TaskType::kMap
                       ? job.maps[record.task_index]
                       : job.reduces[record.task_index];
  std::erase(task.active_attempts, id);
  if (record.type == TaskType::kMap) {
    --job.running_map_attempts;
  } else {
    --job.running_reduce_attempts;
  }
  attempts_.erase(it);
}

void JobTracker::KillOtherAttempts(JobInfo& job, TaskInfo& task,
                                   AttemptId winner) {
  const std::vector<AttemptId> losers(task.active_attempts.begin(),
                                      task.active_attempts.end());
  for (AttemptId a : losers) {
    if (a == winner) continue;
    auto it = attempts_.find(a);
    if (it == attempts_.end()) continue;
    TrackerEntry& entry = trackers_[it->second.tracker];
    if (entry.daemon != nullptr) entry.daemon->KillAttempt(a);
    if (health_ != nullptr && it->second.type == TaskType::kMap) {
      // Losing a map speculation race is duration evidence: the node held
      // the task this long and a peer still finished first, so the
      // elapsed time is a lower bound on what completion would have cost.
      // Without this feed a slow node whose maps always lose the race
      // never produces a duration sample at all.
      health_->OnTaskDuration(entry.net_node,
                              ToSeconds(sim_.now() - it->second.started));
    }
    FinishAttempt(a);
  }
  (void)job;
}

void JobTracker::HandleMapComplete(const AttemptReport& report) {
  const AttemptRecord record = attempts_.at(report.attempt);
  FinishAttempt(report.attempt);
  JobInfo& job = jobs_[record.job];
  TaskInfo& task = job.maps[record.task_index];
  if (task.complete || job.state != JobState::kRunning) return;
  task.complete = true;
  task.completed_at = sim_.now();
  task.completed_on = record.tracker;
  trackers_[record.tracker].completed_maps.emplace(job.id, task.index);
  task.output_bytes = report.map_output_bytes;
  ++job.maps_completed;
  job.map_durations.Add(ToSeconds(sim_.now() - record.started));
  job.counters.map_input_bytes += report.input_bytes;
  if (report.input_was_local) {
    job.counters.local_input_bytes += report.input_bytes;
  } else {
    job.counters.remote_input_bytes += report.input_bytes;
  }
  job.counters.map_output_bytes += report.map_output_bytes;
  KillOtherAttempts(job, task, report.attempt);
  NotifyReducesOfMap(job, task);
  MaybeCompleteJob(job);
}

void JobTracker::HandleReduceComplete(const AttemptReport& report) {
  const AttemptRecord record = attempts_.at(report.attempt);
  FinishAttempt(report.attempt);
  JobInfo& job = jobs_[record.job];
  TaskInfo& task = job.reduces[record.task_index];
  if (task.complete || job.state != JobState::kRunning) return;
  task.complete = true;
  task.completed_at = sim_.now();
  ++job.reduces_completed;
  job.reduce_durations.Add(ToSeconds(sim_.now() - record.started));
  job.counters.shuffle_bytes += report.shuffle_bytes;
  job.counters.reduce_output_bytes += report.output_bytes;
  KillOtherAttempts(job, task, report.attempt);
  MaybeCompleteJob(job);
}

void JobTracker::HandleFailure(const AttemptReport& report) {
  const AttemptRecord record = attempts_.at(report.attempt);
  FinishAttempt(report.attempt);
  JobInfo& job = jobs_[record.job];
  if (job.state != JobState::kRunning) return;
  TaskInfo& task = record.type == TaskType::kMap
                       ? job.maps[record.task_index]
                       : job.reduces[record.task_index];
  if (task.complete) return;  // a failed duplicate of a finished task
  ++task.failures;

  // Per-job tracker blacklisting (mapred.max.tracker.failures).
  const int tracker_fails = ++job.tracker_failures[record.tracker];
  if (tracker_fails >= config_.tracker_blacklist_failures) {
    if (job.blacklist.insert(record.tracker).second) {
      ++blacklist_active_;
      ins_.blacklist_active.Set(blacklist_active_);
    }
  }

  HOG_LOG(kDebug, sim_.now(), "jobtracker")
      << "attempt failed (" << FailureKindName(report.failure) << ") job "
      << job.id << (record.type == TaskType::kMap ? " map " : " reduce ")
      << record.task_index << " failures=" << task.failures;

  if (task.failures >= config_.max_attempts) {
    FailJob(job);
    return;
  }
  // Requeue only if the task actually needs another attempt. Without the
  // guard, a failed speculative copy re-enters pending while its primary
  // attempt is still running — the task is double-counted as runnable, and
  // under multi-copy churn (tracker dies between heartbeat and assignment)
  // the stale entry can win a slot the moment the primary finishes.
  if (TaskNeedsAttempt(job, task)) {
    auto& pending = record.type == TaskType::kMap ? job.pending_maps
                                                  : job.pending_reduces;
    if (std::find(pending.begin(), pending.end(), record.task_index) ==
        pending.end()) {
      pending.push_back(record.task_index);
    }
  }
}

void JobTracker::ReportFetchFailure(JobId job_id, int map_index) {
  if (!available_) {
    queued_fetch_failures_.emplace_back(job_id, map_index);
    return;
  }
  if (job_id >= jobs_.size()) return;
  JobInfo& job = jobs_[job_id];
  if (job.state != JobState::kRunning) return;
  TaskInfo& map = job.maps[map_index];
  if (!map.complete) return;  // already being re-executed
  const TrackerEntry& entry = trackers_[map.completed_on];
  const bool output_gone = !liveness_.alive(map.completed_on) ||
                           entry.daemon == nullptr ||
                           !entry.daemon->process_alive() ||
                           entry.daemon->zombie();
  if (output_gone) {
    RevertCompletedMap(job, map_index);
  } else {
    // The output is fine (e.g. the reduce raced a re-execution); re-send
    // its location so the reduce can fetch from the current holder.
    NotifyReducesOfMap(job, map);
  }
}

bool JobTracker::MapOutputAvailable(JobId job_id, int map_index,
                                    net::NodeId source) const {
  if (job_id >= jobs_.size()) return false;
  const JobInfo& job = jobs_[job_id];
  if (static_cast<std::size_t>(map_index) >= job.maps.size()) return false;
  const TaskInfo& map = job.maps[map_index];
  if (!map.complete || map.completed_on == kInvalidTracker) return false;
  const TrackerEntry& entry = trackers_[map.completed_on];
  return entry.net_node == source && liveness_.alive(map.completed_on) &&
         entry.daemon != nullptr && entry.daemon->process_alive() &&
         !entry.daemon->zombie();
}

void JobTracker::RevertCompletedMap(JobInfo& job, int map_index) {
  TaskInfo& task = job.maps[map_index];
  if (!task.complete) return;
  if (task.completed_on != kInvalidTracker) {
    trackers_[task.completed_on].completed_maps.erase({job.id, map_index});
  }
  task.complete = false;
  task.completed_on = kInvalidTracker;
  task.completed_at = -1;
  --job.maps_completed;
  ins_.map_reexecuted.Add();
  sim_.obs().tracer().EmitInstant("mr", "map.reexecute", sim_.now(),
                                  static_cast<std::uint64_t>(map_index));
  if (std::find(job.pending_maps.begin(), job.pending_maps.end(), map_index) ==
      job.pending_maps.end()) {
    job.pending_maps.push_back(map_index);
  }
}

// ---- Completion ---------------------------------------------------------------------

void JobTracker::MaybeCompleteJob(JobInfo& job) {
  if (job.state != JobState::kRunning) return;
  if (job.maps_completed < static_cast<int>(job.maps.size()) ||
      job.reduces_completed < static_cast<int>(job.reduces.size())) {
    return;
  }
  job.state = JobState::kSucceeded;
  job.finished = sim_.now();
  --running_jobs_;
  RetireBlacklist(job);
  ReleaseCompletedMapIndex(job);
  ins_.job_succeeded.Add();
  ins_.jobs_running.Set(running_jobs_);
  sim_.obs().tracer().EmitSpan("mr", "job", job.submitted,
                               job.finished - job.submitted, job.id);
  // Hadoop deletes intermediate map output only now (§IV.D.2).
  for (TrackerEntry& entry : trackers_) {
    if (entry.daemon != nullptr && entry.daemon->process_alive()) {
      entry.daemon->PurgeJob(job.id);
    }
  }
  HOG_LOG(kInfo, sim_.now(), "jobtracker")
      << "job " << job.id << " (" << job.spec.name << ") finished in "
      << FormatDuration(job.ResponseTime());
  policy_->OnJobTerminal(job.id);
}

void JobTracker::FailJob(JobInfo& job) {
  if (job.state != JobState::kRunning) return;
  job.state = JobState::kFailed;
  job.finished = sim_.now();
  --running_jobs_;
  RetireBlacklist(job);
  ReleaseCompletedMapIndex(job);
  ins_.job_failed.Add();
  ins_.jobs_running.Set(running_jobs_);
  sim_.obs().tracer().EmitSpan("mr", "job.failed", job.submitted,
                               job.finished - job.submitted, job.id);
  // Kill every remaining attempt of the job.
  for (auto* tasks : {&job.maps, &job.reduces}) {
    for (TaskInfo& task : *tasks) {
      const std::vector<AttemptId> active(task.active_attempts.begin(),
                                          task.active_attempts.end());
      for (AttemptId a : active) {
        auto it = attempts_.find(a);
        if (it == attempts_.end()) continue;
        TrackerEntry& entry = trackers_[it->second.tracker];
        if (entry.daemon != nullptr) entry.daemon->KillAttempt(a);
        FinishAttempt(a);
      }
    }
  }
  for (TrackerEntry& entry : trackers_) {
    if (entry.daemon != nullptr && entry.daemon->process_alive()) {
      entry.daemon->PurgeJob(job.id);
    }
  }
  HOG_LOG(kWarn, sim_.now(), "jobtracker")
      << "job " << job.id << " (" << job.spec.name << ") FAILED";
  policy_->OnJobTerminal(job.id);
}

// ---- Preemption ------------------------------------------------------------------

void JobTracker::PreemptAttempt(AttemptId id) {
  auto it = attempts_.find(id);
  if (it == attempts_.end()) return;
  const AttemptRecord record = it->second;
  TrackerEntry& entry = trackers_[record.tracker];
  if (entry.daemon != nullptr) entry.daemon->KillAttempt(id);
  FinishAttempt(id);
  JobInfo& job = jobs_[record.job];
  if (job.state != JobState::kRunning) return;
  TaskInfo& task = record.type == TaskType::kMap ? job.maps[record.task_index]
                                                 : job.reduces[record.task_index];
  // Preemption is a scheduling decision, not a task fault: no failure
  // charge, no blacklist pressure, and no attempt event (like the losers
  // of KillOtherAttempts). The task goes straight back to pending.
  if (!task.complete && TaskNeedsAttempt(job, task)) {
    auto& pending = record.type == TaskType::kMap ? job.pending_maps
                                                  : job.pending_reduces;
    if (std::find(pending.begin(), pending.end(), record.task_index) ==
        pending.end()) {
      pending.push_back(record.task_index);
    }
  }
  ins_.attempt_preempted.Add();
  sim_.obs().tracer().EmitInstant("mr", "attempt.preempted", sim_.now(),
                                  static_cast<std::uint64_t>(record.tracker));
}

}  // namespace hogsim::mr
