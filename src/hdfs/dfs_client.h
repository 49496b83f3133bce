// Client-side HDFS operations: replica-ordered block reads and pipelined
// replicated block writes. Used by map tasks (input reads) and reduce
// tasks (output writes).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/hdfs/namenode.h"
#include "src/hdfs/types.h"
#include "src/net/flow_network.h"
#include "src/sim/simulation.h"

namespace hogsim::hdfs {

/// Handle used to abandon an in-flight operation when the issuing task is
/// killed. Cancelling is always safe; the completion callback never fires
/// afterwards.
class DfsOp {
 public:
  DfsOp() = default;
  void Cancel();

 private:
  friend class DfsClient;
  struct State {
    bool finished = false;
    bool cancelled = false;
    std::function<void()> abort;  // tears down the current flow/disk op
  };
  std::shared_ptr<State> state_;
};

class DfsClient {
 public:
  explicit DfsClient(Namenode& namenode);

  using Callback = std::function<void(bool ok)>;
  /// Read completion: `local` reports whether the winning replica was on
  /// the reader's own node (locality counters).
  using ReadCallback = std::function<void(bool ok, bool local)>;

  /// Reads one block from `reader`'s position. Replicas are tried in
  /// locality order (same node -> same rack -> elsewhere). A replica whose
  /// datanode accepts connections but cannot serve (zombie) costs
  /// `read_retry_timeout` before the next is tried; an unreachable replica
  /// fails fast. `done(false, ...)` after all replicas are exhausted.
  DfsOp ReadBlock(net::NodeId reader, BlockId block, ReadCallback done);

  /// Writes one `size`-byte block of `file` from `reader`'s position
  /// through a replication pipeline (client -> dn1 -> dn2 -> ...). A
  /// target that fails mid-pipeline is replaced: the client asks the
  /// namenode for a substitute (excluding current members) and retries
  /// that hop from the nearest surviving upstream member after a capped
  /// exponential backoff with jitter. Only when no replacement exists (or
  /// the per-pipeline recovery budget is spent) is the replica dropped and
  /// the block committed with the successful members. `done(false)` only
  /// if no replica at all was written (after `max_write_attempts`
  /// fresh-target retries).
  DfsOp WriteBlock(net::NodeId writer, FileId file, Bytes size,
                   Callback done);

  /// Total bytes read via remote (non-local) replicas; locality metric.
  Bytes remote_read_bytes() const { return remote_read_bytes_; }
  Bytes local_read_bytes() const { return local_read_bytes_; }

 private:
  struct ReadAttempt;

  // Observability handles, registered once at construction (obs/metrics.h).
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& m)
        : hop_failed(m.GetCounter("hdfs.pipeline.hop_failed")),
          recovered(m.GetCounter("hdfs.pipeline.recovered")),
          recovery_failed(m.GetCounter("hdfs.pipeline.recovery_failed")) {}
    obs::Counter& hop_failed;
    obs::Counter& recovered;
    obs::Counter& recovery_failed;
  };

  void TryReadReplica(std::shared_ptr<DfsOp::State> state,
                      net::NodeId reader, BlockId block,
                      std::vector<DatanodeId> order, std::size_t index,
                      ReadCallback done);
  void RunPipeline(std::shared_ptr<DfsOp::State> state, net::NodeId writer,
                   FileId file, Bytes size, int attempt, Callback done);

  Namenode& nn_;
  sim::Simulation& sim_;
  net::FlowNetwork& net_;
  Instruments ins_;
  Bytes remote_read_bytes_ = 0;
  Bytes local_read_bytes_ = 0;
  static constexpr int kMaxWriteAttempts = 3;
  /// Replacement-target budget per pipeline; bounds recovery work when a
  /// storm keeps killing members faster than the client can patch around.
  static constexpr int kMaxPipelineRecoveries = 4;
};

}  // namespace hogsim::hdfs
