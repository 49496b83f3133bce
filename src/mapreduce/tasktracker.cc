#include "src/mapreduce/tasktracker.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/health/liveness.h"
#include "src/mapreduce/jobtracker.h"
#include "src/util/log.h"

namespace hogsim::mr {

namespace {
Bytes MapOutputBytes(const MapAttemptSpec& spec) {
  return static_cast<Bytes>(
      std::llround(spec.selectivity * static_cast<double>(spec.input_size)));
}

/// Gray-fault compute slowdown; exact pass-through at the default scale so
/// an un-slowed run is byte-identical.
SimDuration Scaled(SimDuration d, double scale) {
  if (scale == 1.0) return d;
  return static_cast<SimDuration>(
      std::llround(static_cast<double>(d) * scale));
}
}  // namespace

const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kInputUnavailable: return "input-unavailable";
    case FailureKind::kDiskFull: return "disk-full";
    case FailureKind::kZombieDir: return "zombie-workdir";
    case FailureKind::kTimeout: return "timeout";
    case FailureKind::kTrackerLost: return "tracker-lost";
    case FailureKind::kShuffleStalled: return "shuffle-stalled";
    case FailureKind::kOutputWrite: return "output-write";
  }
  return "unknown";
}

TaskTracker::TaskTracker(sim::Simulation& sim, net::FlowNetwork& net,
                         JobTracker& jobtracker, hdfs::DfsClient& dfs,
                         std::string hostname, net::NodeId node,
                         storage::Disk& disk, int map_slots, int reduce_slots)
    : sim_(sim),
      net_(net),
      jt_(jobtracker),
      dfs_(dfs),
      hostname_(std::move(hostname)),
      node_(node),
      disk_(disk),
      ins_(sim.obs().metrics()),
      map_slots_(map_slots),
      reduce_slots_(reduce_slots) {}

TaskTracker::~TaskTracker() {
  // Never notify observers from teardown: the exit callback may reference
  // sibling objects that are already destroyed.
  on_exit_ = nullptr;
  Shutdown();
}

void TaskTracker::Start() {
  process_alive_ = true;
  id_ = jt_.RegisterTracker(*this);
  heartbeat_.Start(sim_, jt_.config().heartbeat_interval,
                   [this] { SendHeartbeat(); });
  if (jt_.config().disk_check_interval > 0) {
    disk_check_.Start(sim_, jt_.config().disk_check_interval,
                      [this] { ProbeWorkingDirectory(); });
  }
}

void TaskTracker::Shutdown() {
  if (!process_alive_) return;
  process_alive_ = false;
  heartbeat_.Stop();
  disk_check_.Stop();
  std::vector<AttemptId> ids;
  ids.reserve(attempts_.size());
  for (auto& [id, a] : attempts_) ids.push_back(id);
  for (AttemptId id : ids) {
    TearDown(attempts_.at(id), /*keep_map_output=*/false);
    attempts_.erase(id);
  }
  if (on_exit_) on_exit_();
}

void TaskTracker::EnterZombieMode() {
  if (!process_alive_) return;
  disk_.set_writable(false);
  // Every running attempt dies as soon as it next touches the deleted
  // working directory.
  std::vector<AttemptId> ids;
  for (auto& [id, a] : attempts_) ids.push_back(id);
  sim_.ScheduleAfter(jt_.config().zombie_fail_delay, [this, ids] {
    for (AttemptId id : ids) {
      if (attempts_.contains(id)) FailAttempt(id, FailureKind::kZombieDir);
    }
  });
}

void TaskTracker::SendHeartbeat() {
  if (!process_alive_) return;
  JobTracker& jt = jt_;
  health::SendHeartbeat(sim_, net_.Latency(node_, jt.master_node()), node_,
                        ++heartbeat_seq_, heartbeat_jitter_,
                        [&jt, id = id_] { jt.Heartbeat(id); });
}

void TaskTracker::ProbeWorkingDirectory() {
  if (!process_alive_) return;
  if (!disk_.writable()) {
    HOG_LOG(kInfo, sim_.now(), "tasktracker")
        << hostname_ << ": working directory probe failed, shutting down";
    Shutdown();
  }
}

Bytes TaskTracker::intermediate_bytes() const {
  Bytes total = 0;
  for (const auto& [job, bytes] : job_intermediate_) total += bytes;
  return total;
}

void TaskTracker::ArmTimeout(AttemptId id) {
  auto it = attempts_.find(id);
  if (it == attempts_.end()) return;
  it->second.timeout = sim_.ScheduleAfter(jt_.config().task_timeout, [this, id] {
    if (attempts_.contains(id)) FailAttempt(id, FailureKind::kTimeout);
  });
}

// ---- Map execution -----------------------------------------------------------

void TaskTracker::StartMapAttempt(const MapAttemptSpec& spec) {
  if (!process_alive_) return;
  Attempt attempt;
  attempt.type = TaskType::kMap;
  attempt.map = spec;
  attempts_.emplace(spec.attempt, std::move(attempt));
  ArmTimeout(spec.attempt);
  const AttemptId id = spec.attempt;
  if (zombie()) {
    attempts_.at(id).step = sim_.ScheduleAfter(
        jt_.config().zombie_fail_delay,
        [this, id] { FailAttempt(id, FailureKind::kZombieDir); });
    return;
  }
  attempts_.at(id).step = sim_.ScheduleAfter(jt_.config().task_startup,
                                             [this, id] { MapRead(id); });
}

void TaskTracker::MapRead(AttemptId id) {
  hdfs::DfsOp op = dfs_.ReadBlock(
      node_, attempts_.at(id).map.block, [this, id](bool ok, bool local) {
        if (!attempts_.contains(id)) return;
        if (!ok) {
          FailAttempt(id, FailureKind::kInputUnavailable);
          return;
        }
        attempts_.at(id).input_local = local;
        MapCompute(id);
      });
  // A block with no live replica fails the read before ReadBlock returns,
  // and FailAttempt has then already erased the attempt.
  const auto it = attempts_.find(id);
  if (it != attempts_.end()) it->second.dfs_op = std::move(op);
}

void TaskTracker::MapCompute(AttemptId id) {
  Attempt& a = attempts_.at(id);
  const SimDuration compute = Scaled(
      TransferTime(a.map.input_size, a.map.compute_rate), compute_scale_);
  a.step = sim_.ScheduleAfter(compute, [this, id] { MapWriteOutput(id); });
}

void TaskTracker::MapWriteOutput(AttemptId id) {
  Attempt& a = attempts_.at(id);
  const Bytes out = MapOutputBytes(a.map);
  if (out > 0 && !disk_.Reserve(out)) {
    // §IV.D.2: intermediate output from earlier (unfinished) jobs has
    // filled the disk.
    FailAttempt(id, FailureKind::kDiskFull);
    return;
  }
  a.reserved += out;
  if (out == 0) {
    CompleteMap(id);
    return;
  }
  const auto op = disk_.Write(out, [this, id] {
    if (!attempts_.contains(id)) return;
    attempts_.at(id).disk_ops.clear();
    CompleteMap(id);
  });
  if (op == storage::FairQueue::kInvalidOp) {
    FailAttempt(id, FailureKind::kZombieDir);
    return;
  }
  a.disk_ops.insert(op);
}

void TaskTracker::CompleteMap(AttemptId id) {
  Attempt& a = attempts_.at(id);
  const Bytes out = MapOutputBytes(a.map);
  // The output now belongs to the job's intermediate pool: it survives the
  // attempt and is deleted only when the whole job finishes.
  job_intermediate_[a.map.job] += a.reserved;
  a.reserved = 0;
  AttemptReport report;
  report.attempt = id;
  report.job = a.map.job;
  report.type = TaskType::kMap;
  report.task_index = a.map.task_index;
  report.success = true;
  report.map_output_bytes = out;
  report.input_bytes = a.map.input_size;
  report.input_was_local = a.input_local;
  TearDown(a, /*keep_map_output=*/true);
  attempts_.erase(id);
  Report(report);
}

// ---- Reduce execution ----------------------------------------------------------

void TaskTracker::StartReduceAttempt(const ReduceAttemptSpec& spec) {
  if (!process_alive_) return;
  Attempt attempt;
  attempt.type = TaskType::kReduce;
  attempt.reduce = spec;
  attempts_.emplace(spec.attempt, std::move(attempt));
  ArmTimeout(spec.attempt);
  const AttemptId id = spec.attempt;
  if (zombie()) {
    attempts_.at(id).step = sim_.ScheduleAfter(
        jt_.config().zombie_fail_delay,
        [this, id] { FailAttempt(id, FailureKind::kZombieDir); });
    return;
  }
  // Startup, then wait for map-completion events (the jobtracker sends a
  // snapshot right after launch) and shuffle as they arrive.
  attempts_.at(id).step =
      sim_.ScheduleAfter(jt_.config().task_startup, [this, id] {
        if (attempts_.contains(id)) PumpShuffle(id);
      });
}

void TaskTracker::NotifyMapComplete(AttemptId reduce_attempt, int map_index,
                                    net::NodeId source, Bytes bytes) {
  if (!process_alive_) return;
  auto it = attempts_.find(reduce_attempt);
  if (it == attempts_.end() || it->second.type != TaskType::kReduce) return;
  Attempt& a = it->second;
  if (a.done_maps.contains(map_index) || a.pending.contains(map_index)) return;
  a.pending.emplace(map_index, PendingFetch{source, bytes});
  PumpShuffle(reduce_attempt);
}

void TaskTracker::PumpShuffle(AttemptId id) {
  auto it = attempts_.find(id);
  if (it == attempts_.end()) return;
  Attempt& a = it->second;
  while (a.active_fetches < jt_.config().parallel_copies &&
         !a.pending.empty()) {
    const int map_index = a.pending.begin()->first;
    const PendingFetch fetch = a.pending.begin()->second;
    a.pending.erase(a.pending.begin());
    // Shuffle data spills to the local disk; running out of space here is
    // the reduce-side face of §IV.D.2.
    if (fetch.bytes > 0 && !disk_.Reserve(fetch.bytes)) {
      FailAttempt(id, FailureKind::kDiskFull);
      return;
    }
    a.reserved += fetch.bytes;
    ++a.active_fetches;
    const JobId job = a.reduce.job;
    const net::FlowId flow = net_.StartFlow(
        fetch.source, node_, fetch.bytes,
        [this, id, map_index, fetch, job](bool ok) {
          auto ait = attempts_.find(id);
          if (ait == attempts_.end()) return;
          Attempt& attempt = ait->second;
          --attempt.active_fetches;
          if (!ok) {
            // The map's node died mid-fetch: give back the space, tell the
            // jobtracker (it will re-execute the map) and keep shuffling
            // the rest.
            attempt.reserved -= fetch.bytes;
            disk_.Release(fetch.bytes);
            const SimDuration latency = net_.Latency(node_, jt_.master_node());
            JobTracker& jt = jt_;
            sim_.ScheduleAfter(latency, [&jt, job, map_index] {
              jt.ReportFetchFailure(job, map_index);
            });
            PumpShuffle(id);
            return;
          }
          // Connecting is not enough: the map's working directory may have
          // been deleted under a zombie tracker (§IV.D.1) — then the fetch
          // yields an error instead of data.
          if (!jt_.MapOutputAvailable(job, map_index, fetch.source)) {
            attempt.reserved -= fetch.bytes;
            disk_.Release(fetch.bytes);
            const SimDuration latency = net_.Latency(node_, jt_.master_node());
            JobTracker& jt = jt_;
            sim_.ScheduleAfter(latency, [&jt, job, map_index] {
              jt.ReportFetchFailure(job, map_index);
            });
            PumpShuffle(id);
            return;
          }
          // Spill the fetched partition to disk.
          const auto op = disk_.Write(fetch.bytes, [this, id, map_index,
                                                    fetch] {
            auto sit = attempts_.find(id);
            if (sit == attempts_.end()) return;
            Attempt& attempt2 = sit->second;
            attempt2.done_maps.insert(map_index);
            attempt2.shuffled += fetch.bytes;
            ins_.shuffle_fetched.Add();
            ins_.shuffle_bytes.Add(static_cast<std::uint64_t>(fetch.bytes));
            if (static_cast<int>(attempt2.done_maps.size()) ==
                attempt2.reduce.num_maps) {
              ReduceMerge(id);
            } else {
              PumpShuffle(id);
            }
          });
          if (op == storage::FairQueue::kInvalidOp) {
            FailAttempt(id, FailureKind::kZombieDir);
            return;
          }
          attempt.disk_ops.insert(op);
        });
    a.flows.insert(flow);
  }
}

void TaskTracker::ReduceMerge(AttemptId id) {
  Attempt& a = attempts_.at(id);
  a.flows.clear();
  a.disk_ops.clear();
  // Merge-sort pass over the shuffled data.
  const auto op = disk_.Read(a.shuffled, [this, id] {
    if (attempts_.contains(id)) ReduceCompute(id);
  });
  a.disk_ops.insert(op);
}

void TaskTracker::ReduceCompute(AttemptId id) {
  Attempt& a = attempts_.at(id);
  a.disk_ops.clear();
  const SimDuration compute =
      Scaled(TransferTime(a.shuffled, a.reduce.compute_rate), compute_scale_);
  a.step = sim_.ScheduleAfter(compute, [this, id] {
    if (!attempts_.contains(id)) return;
    Attempt& attempt = attempts_.at(id);
    attempt.output_remaining = static_cast<Bytes>(std::llround(
        attempt.reduce.selectivity * static_cast<double>(attempt.shuffled)));
    ReduceWriteOutput(id);
  });
}

void TaskTracker::ReduceWriteOutput(AttemptId id) {
  Attempt& a = attempts_.at(id);
  if (a.output_remaining <= 0) {
    CompleteReduce(id);
    return;
  }
  const Bytes chunk = std::min(a.output_remaining, hdfs::kBlockSize);
  a.dfs_op = dfs_.WriteBlock(node_, a.reduce.output_file, chunk,
                             [this, id, chunk](bool ok) {
                               if (!attempts_.contains(id)) return;
                               if (!ok) {
                                 FailAttempt(id, FailureKind::kOutputWrite);
                                 return;
                               }
                               Attempt& attempt = attempts_.at(id);
                               attempt.output_remaining -= chunk;
                               attempt.output_written += chunk;
                               ReduceWriteOutput(id);
                             });
}

void TaskTracker::CompleteReduce(AttemptId id) {
  Attempt& a = attempts_.at(id);
  AttemptReport report;
  report.attempt = id;
  report.job = a.reduce.job;
  report.type = TaskType::kReduce;
  report.task_index = a.reduce.task_index;
  report.success = true;
  report.shuffle_bytes = a.shuffled;
  report.output_bytes = a.output_written;
  TearDown(a, /*keep_map_output=*/false);  // frees the shuffle spill space
  attempts_.erase(id);
  Report(report);
}

// ---- Failure / teardown ---------------------------------------------------------

void TaskTracker::FailAttempt(AttemptId id, FailureKind kind) {
  auto it = attempts_.find(id);
  if (it == attempts_.end()) return;
  Attempt& a = it->second;
  AttemptReport report;
  report.attempt = id;
  report.job = a.type == TaskType::kMap ? a.map.job : a.reduce.job;
  report.type = a.type;
  report.task_index =
      a.type == TaskType::kMap ? a.map.task_index : a.reduce.task_index;
  report.success = false;
  report.failure = kind;
  TearDown(a, /*keep_map_output=*/false);
  attempts_.erase(it);
  Report(report);
}

void TaskTracker::KillAttempt(AttemptId attempt) {
  auto it = attempts_.find(attempt);
  if (it == attempts_.end()) return;
  TearDown(it->second, /*keep_map_output=*/false);
  attempts_.erase(it);
}

void TaskTracker::TearDown(Attempt& attempt, bool keep_map_output) {
  attempt.dfs_op.Cancel();
  for (auto op : attempt.disk_ops) disk_.Cancel(op);
  attempt.disk_ops.clear();
  for (auto flow : attempt.flows) net_.CancelFlow(flow);
  attempt.flows.clear();
  sim_.Cancel(attempt.step);
  sim_.Cancel(attempt.timeout);
  if (!keep_map_output && attempt.reserved > 0) {
    disk_.Release(attempt.reserved);
    attempt.reserved = 0;
  }
}

void TaskTracker::PurgeJob(JobId job) {
  auto it = job_intermediate_.find(job);
  if (it == job_intermediate_.end()) return;
  disk_.Release(it->second);
  job_intermediate_.erase(it);
}

void TaskTracker::Report(const AttemptReport& report) {
  const SimDuration latency = net_.Latency(node_, jt_.master_node());
  JobTracker& jt = jt_;
  sim_.ScheduleAfter(latency, [&jt, report] { jt.ReportAttempt(report); });
}

}  // namespace hogsim::mr
