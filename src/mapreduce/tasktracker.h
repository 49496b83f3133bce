// Tasktracker daemon: executes map and reduce attempts on a worker node.
//
// The execution model is loadgen-like (the paper's benchmark driver):
//   map    = startup -> read input block (HDFS, locality-aware) ->
//            compute -> write map output to the LOCAL disk
//   reduce = startup -> shuffle (<= parallel_copies concurrent fetches of
//            each map's partition, over the real network) -> merge I/O ->
//            compute -> write output to HDFS via replication pipeline
//
// Map output stays on the local disk until the whole job finishes —
// Hadoop's behaviour, and the root cause of the paper's §IV.D.2 disk
// overflow. A tasktracker in zombie mode (§IV.D.1) keeps heartbeating and
// accepting tasks, but every attempt fails as soon as it touches the
// deleted working directory.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hdfs/dfs_client.h"
#include "src/mapreduce/types.h"
#include "src/net/flow_network.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/storage/disk.h"

namespace hogsim::mr {

class JobTracker;

/// Parameters of one map attempt, chosen by the jobtracker.
struct MapAttemptSpec {
  AttemptId attempt = kInvalidAttempt;
  JobId job = kInvalidJob;
  int task_index = 0;
  hdfs::BlockId block = hdfs::kInvalidBlock;
  Bytes input_size = 0;
  double selectivity = 1.0;
  Rate compute_rate = MiBps(2.5);
};

/// Parameters of one reduce attempt.
struct ReduceAttemptSpec {
  AttemptId attempt = kInvalidAttempt;
  JobId job = kInvalidJob;
  int task_index = 0;
  int num_maps = 0;
  int num_reduces = 1;
  double selectivity = 0.4;
  Rate compute_rate = MiBps(5.0);
  hdfs::FileId output_file = hdfs::kInvalidFile;
};

/// Completion/failure report sent back to the jobtracker.
struct AttemptReport {
  AttemptId attempt = kInvalidAttempt;
  JobId job = kInvalidJob;
  TaskType type = TaskType::kMap;
  int task_index = 0;
  bool success = false;
  FailureKind failure = FailureKind::kNone;
  Bytes map_output_bytes = 0;
  // Counter payload (successful attempts).
  Bytes input_bytes = 0;        // map: block bytes read
  bool input_was_local = false; // map: read from the local replica
  Bytes shuffle_bytes = 0;      // reduce: fetched partition bytes
  Bytes output_bytes = 0;       // reduce: bytes written to HDFS
};

class TaskTracker {
 public:
  TaskTracker(sim::Simulation& sim, net::FlowNetwork& net,
              JobTracker& jobtracker, hdfs::DfsClient& dfs,
              std::string hostname, net::NodeId node, storage::Disk& disk,
              int map_slots, int reduce_slots);
  ~TaskTracker();
  TaskTracker(const TaskTracker&) = delete;
  TaskTracker& operator=(const TaskTracker&) = delete;

  /// Registers with the jobtracker and begins heartbeating.
  void Start();

  /// Process death: running attempts vanish without reports (the
  /// jobtracker learns through heartbeat expiry). Idempotent.
  void Shutdown();

  /// §IV.D.1: working directory deleted, daemon alive. Running attempts
  /// fail shortly; future attempts fail on their first write.
  void EnterZombieMode();

  bool process_alive() const { return process_alive_; }
  bool zombie() const { return process_alive_ && !disk_.writable(); }

  const std::string& hostname() const { return hostname_; }
  net::NodeId net_node() const { return node_; }
  int map_slots() const { return map_slots_; }
  int reduce_slots() const { return reduce_slots_; }

  // ---- Jobtracker -> tasktracker RPCs ----------------------------------

  void StartMapAttempt(const MapAttemptSpec& spec);
  void StartReduceAttempt(const ReduceAttemptSpec& spec);

  /// Kills a running attempt without a report (speculative loser, timeout
  /// decided centrally, job teardown). No-op if unknown.
  void KillAttempt(AttemptId attempt);

  /// Map-completion event routed to a running reduce attempt: partition
  /// `bytes` of map `map_index` are available at `source`.
  void NotifyMapComplete(AttemptId reduce_attempt, int map_index,
                         net::NodeId source, Bytes bytes);

  /// The job finished: delete its intermediate map output from this disk.
  void PurgeJob(JobId job);

  // ---- Introspection -----------------------------------------------------

  Bytes intermediate_bytes() const;

  /// Fired when the daemon exits for any reason.
  void set_on_exit(std::function<void()> cb) { on_exit_ = std::move(cb); }

  // ---- Gray faults (src/fault slow-node / delay-heartbeats) -------------

  /// Scales the duration of compute stages STARTED from now on (factor 2 =
  /// tasks take twice as long; 1 restores). In-flight stages keep their
  /// original schedule.
  void set_compute_scale(double factor) { compute_scale_ = factor; }

  /// Max extra delay added to each future heartbeat
  /// (health::HeartbeatDelay). 0 restores the exact nominal cadence.
  void set_heartbeat_jitter(SimDuration jitter) { heartbeat_jitter_ = jitter; }

 private:
  struct PendingFetch {
    net::NodeId source;
    Bytes bytes;
  };

  struct Attempt {
    TaskType type;
    MapAttemptSpec map;
    ReduceAttemptSpec reduce;
    // Live resources, torn down on kill/fail.
    hdfs::DfsOp dfs_op;
    std::set<storage::FairQueue::OpId> disk_ops;
    std::set<net::FlowId> flows;
    sim::EventHandle step;
    sim::EventHandle timeout;
    Bytes reserved = 0;  // local-disk bytes held by this attempt
    // Reduce shuffle state.
    std::map<int, PendingFetch> pending;  // ordered: deterministic fetches
    std::set<int> done_maps;
    int active_fetches = 0;
    Bytes shuffled = 0;
    Bytes output_remaining = 0;
    Bytes output_written = 0;
    bool input_local = false;  // map: winning input replica was local
  };

  void SendHeartbeat();
  void ProbeWorkingDirectory();
  void FailAttempt(AttemptId id, FailureKind kind);
  void CompleteMap(AttemptId id);
  void CompleteReduce(AttemptId id);
  void Report(const AttemptReport& report);
  void TearDown(Attempt& attempt, bool keep_map_output);
  void ArmTimeout(AttemptId id);

  // Map pipeline stages.
  void MapRead(AttemptId id);
  void MapCompute(AttemptId id);
  void MapWriteOutput(AttemptId id);

  // Reduce pipeline stages.
  void PumpShuffle(AttemptId id);
  void ReduceMerge(AttemptId id);
  void ReduceCompute(AttemptId id);
  void ReduceWriteOutput(AttemptId id);

  // Observability handles, registered once at construction (obs/metrics.h).
  // All tasktrackers of a cluster share these counters: they are
  // cluster-wide shuffle totals, not per-node.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& m)
        : shuffle_fetched(m.GetCounter("mr.shuffle.fetched")),
          shuffle_bytes(m.GetCounter("mr.shuffle.bytes")) {}
    obs::Counter& shuffle_fetched;
    obs::Counter& shuffle_bytes;
  };

  sim::Simulation& sim_;
  net::FlowNetwork& net_;
  JobTracker& jt_;
  hdfs::DfsClient& dfs_;
  std::string hostname_;
  net::NodeId node_;
  storage::Disk& disk_;
  Instruments ins_;
  int map_slots_;
  int reduce_slots_;
  TrackerId id_ = kInvalidTracker;
  bool process_alive_ = false;
  sim::PeriodicTimer heartbeat_;
  sim::PeriodicTimer disk_check_;
  std::unordered_map<AttemptId, Attempt> attempts_;
  std::unordered_map<JobId, Bytes> job_intermediate_;
  double compute_scale_ = 1.0;
  SimDuration heartbeat_jitter_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::function<void()> on_exit_;
};

}  // namespace hogsim::mr
