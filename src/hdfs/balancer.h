// HDFS balancer: iteratively moves block replicas from over-utilized to
// under-utilized datanodes. The paper invokes it after elastically growing
// HOG so freshly joined (empty) glideins pick up a share of the data
// (§IV.C). Runs as a periodic background pass while enabled.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "src/hdfs/namenode.h"
#include "src/sim/simulation.h"

namespace hogsim::hdfs {

struct BalancerConfig {
  /// A node is a candidate source/sink when its utilization differs from
  /// the cluster mean by more than this (fraction of capacity, as in
  /// `hdfs balancer -threshold`).
  double threshold = 0.10;
  /// Max concurrent block moves per pass.
  int max_concurrent_moves = 5;
  SimDuration pass_interval = 30 * kSecond;
};

class Balancer {
 public:
  Balancer(Namenode& namenode, BalancerConfig config = {});

  /// Starts periodic balancing passes.
  void Start();
  void Stop();

  /// Runs one pass synchronously-ish: schedules up to
  /// `max_concurrent_moves` block moves. Returns how many were started.
  int RunPass();

  std::uint64_t moves_completed() const { return moves_completed_; }
  Bytes bytes_moved() const { return bytes_moved_; }

 private:
  void StartMove(BlockId block, DatanodeId src, DatanodeId dst);

  Namenode& nn_;
  BalancerConfig config_;
  sim::PeriodicTimer timer_;
  int active_moves_ = 0;
  std::uint64_t moves_completed_ = 0;
  Bytes bytes_moved_ = 0;
};

}  // namespace hogsim::hdfs
