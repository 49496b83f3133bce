// Shared identifiers and small value types for the HDFS model.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/net/flow_network.h"
#include "src/util/units.h"

namespace hogsim::hdfs {

using BlockId = std::uint64_t;
using FileId = std::uint32_t;
using DatanodeId = std::uint32_t;

constexpr BlockId kInvalidBlock = 0;
constexpr FileId kInvalidFile = std::numeric_limits<FileId>::max();
constexpr DatanodeId kInvalidDatanode = std::numeric_limits<DatanodeId>::max();

/// The HDFS block size. Files split into blocks of this size (the tail
/// block may be shorter) and each job runs one map per input block
/// (§II.A), so the workload sizes a `maps`-map input as maps * kBlockSize.
constexpr Bytes kBlockSize = 64 * kMiB;

/// Where one block of a file lives; handed to the MapReduce scheduler for
/// locality decisions.
struct BlockLocation {
  BlockId block = kInvalidBlock;
  Bytes size = 0;
  std::vector<DatanodeId> datanodes;  // serving replicas, namenode's view
  std::vector<net::NodeId> net_nodes;
  std::vector<std::string> racks;     // topology script output per replica
};

/// HDFS-wide tunables. The two columns of interest in this reproduction:
///
///                         stock Hadoop 0.20     HOG (§III.B)
///   default_replication   3                     10
///   heartbeat_recheck     10.5 min              30 s
///   site-aware placement  off (rack aware)      on
struct HdfsConfig {
  int default_replication = 3;

  SimDuration heartbeat_interval = 3 * kSecond;
  /// A datanode silent for this long is declared dead (the paper lowers
  /// this from the traditional ~15 minutes to 30 seconds). The `deadline`
  /// detector's budget; `phi` bootstraps and clamps with it.
  SimDuration heartbeat_recheck = FromSeconds(10.5 * 60);

  /// Liveness rule, resolved through health::CreateDetector ("deadline"
  /// or "phi[:k=v;...]"); "deadline" is byte-identical to the pre-seam
  /// namenode. See src/health.
  std::string detector = "deadline";

  /// Max concurrent re-replication transfers a single node sources or
  /// sinks (dfs.max-repl-streams in Hadoop).
  int max_replication_streams = 2;
  /// Ceiling the soft limit may be exceeded up to when the block being
  /// repaired is endangered (critical or badly under-replicated — HDFS's
  /// two-tier replication-streams throttle). After a site-scale storm
  /// every survivor is saturated with routine repairs; without the second
  /// tier the blocks closest to loss starve behind them.
  int max_replication_streams_hard = 4;
  /// How often the replication monitor scans the needed-replication queue.
  SimDuration replication_scan_interval = 3 * kSecond;

  /// Client-side read: time wasted on a replica that accepts connections
  /// but cannot serve (a zombie datanode), before trying the next replica.
  SimDuration read_retry_timeout = 10 * kSecond;

  /// Datanode periodic working-directory probe (the paper's §IV.D.1 fix:
  /// write a small file and read it back every 3 minutes; shut down on
  /// failure). Zero disables the probe — stock Hadoop 0.20 behaviour,
  /// which checks the disk only at startup.
  SimDuration disk_check_interval = 0;
};

}  // namespace hogsim::hdfs
