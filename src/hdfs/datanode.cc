#include "src/hdfs/datanode.h"

#include "src/hdfs/namenode.h"
#include "src/health/liveness.h"
#include "src/util/log.h"

namespace hogsim::hdfs {

Datanode::Datanode(sim::Simulation& sim, net::FlowNetwork& net,
                   Namenode& namenode, std::string hostname, net::NodeId node,
                   storage::Disk& disk)
    : sim_(sim),
      net_(net),
      namenode_(namenode),
      hostname_(std::move(hostname)),
      node_(node),
      disk_(disk) {}

Datanode::~Datanode() {
  // Never notify observers from teardown: the exit callback may reference
  // sibling objects that are already destroyed.
  on_exit_ = nullptr;
  Shutdown();
}

void Datanode::Start() {
  process_alive_ = true;
  TryRegister();
}

void Datanode::TryRegister() {
  if (!process_alive_) return;
  if (!namenode_.available()) {
    // The master is down: keep retrying, as the real daemon's IPC layer
    // does, until the namenode answers.
    sim_.ScheduleAfter(10 * kSecond, [this] { TryRegister(); });
    return;
  }
  id_ = namenode_.RegisterDatanode(*this);
  heartbeat_.Start(sim_, namenode_.config().heartbeat_interval,
                   [this] { SendHeartbeat(); });
  if (namenode_.config().disk_check_interval > 0) {
    disk_check_.Start(sim_, namenode_.config().disk_check_interval,
                      [this] { ProbeWorkingDirectory(); });
  }
}

void Datanode::Shutdown() {
  if (!process_alive_) return;
  process_alive_ = false;
  heartbeat_.Stop();
  disk_check_.Stop();
  if (on_exit_) on_exit_();
}

void Datanode::EnterZombieMode() {
  disk_.set_writable(false);
}

void Datanode::SendHeartbeat() {
  if (!process_alive_) return;
  // The heartbeat is a small RPC: model only its one-way latency.
  Namenode& nn = namenode_;
  health::SendHeartbeat(sim_, net_.Latency(node_, nn.master_node()), node_,
                        ++heartbeat_seq_, heartbeat_jitter_,
                        [&nn, id = id_] { nn.Heartbeat(id); });
}

void Datanode::ProbeWorkingDirectory() {
  if (!process_alive_) return;
  // The paper's fix: write a small file and read it back; on failure the
  // daemon shuts itself down so the namenode can re-replicate.
  if (!disk_.writable()) {
    HOG_LOG(kInfo, sim_.now(), "datanode")
        << hostname_ << ": working directory probe failed, shutting down";
    Shutdown();
  }
}

}  // namespace hogsim::hdfs
