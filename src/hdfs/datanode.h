// Datanode daemon: heartbeats, block storage on the local Disk, and the
// paper's §IV.D.1 working-directory probe.
//
// Lifecycle on the grid: the glidein wrapper starts the daemon; a clean
// preemption calls Shutdown() (process tree killed); a zombie preemption
// calls EnterZombieMode() — the working directory is gone but the process
// lives, keeps heartbeating, and silently holds phantom replicas. With
// `disk_check_interval > 0` (HOG's fix) the daemon probes its directory
// periodically and shuts itself down once the probe fails.
#pragma once

#include <functional>
#include <string>

#include "src/hdfs/types.h"
#include "src/net/flow_network.h"
#include "src/sim/simulation.h"
#include "src/storage/disk.h"

namespace hogsim::hdfs {

class Namenode;

class Datanode {
 public:
  Datanode(sim::Simulation& sim, net::FlowNetwork& net, Namenode& namenode,
           std::string hostname, net::NodeId node, storage::Disk& disk);
  ~Datanode();
  Datanode(const Datanode&) = delete;
  Datanode& operator=(const Datanode&) = delete;

  /// Registers with the namenode and begins heartbeating.
  void Start();

  /// Process death (clean preemption or self-exit). Idempotent.
  void Shutdown();

  /// §IV.D.1: the site deleted the working directory but the daemon
  /// escaped the kill. Marks the disk unwritable; blocks become
  /// unserveable while heartbeats continue.
  void EnterZombieMode();

  bool process_alive() const { return process_alive_; }
  /// True when reads from this datanode succeed (alive + disk intact).
  bool can_serve() const { return process_alive_ && disk_.writable(); }
  bool zombie() const { return process_alive_ && !disk_.writable(); }

  const std::string& hostname() const { return hostname_; }
  net::NodeId net_node() const { return node_; }
  storage::Disk& disk() { return disk_; }

  /// Fired when the daemon exits for any reason (used by owners to reap).
  void set_on_exit(std::function<void()> cb) { on_exit_ = std::move(cb); }

  /// Gray fault (src/fault delay-heartbeats): max extra delay added to each
  /// future heartbeat (health::HeartbeatDelay). 0 restores the exact
  /// nominal cadence.
  void set_heartbeat_jitter(SimDuration jitter) { heartbeat_jitter_ = jitter; }

 private:
  void TryRegister();
  void SendHeartbeat();
  void ProbeWorkingDirectory();

  sim::Simulation& sim_;
  net::FlowNetwork& net_;
  Namenode& namenode_;
  std::string hostname_;
  net::NodeId node_;
  storage::Disk& disk_;
  DatanodeId id_ = kInvalidDatanode;
  bool process_alive_ = false;
  sim::PeriodicTimer heartbeat_;
  sim::PeriodicTimer disk_check_;
  SimDuration heartbeat_jitter_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::function<void()> on_exit_;
};

}  // namespace hogsim::hdfs
