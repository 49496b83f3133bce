// The paper's system: Hadoop On the Grid.
//
// A HogCluster wires together the three architecture components of §III:
//  1. Grid submission & execution — Condor/GlideinWMS-style glidein
//     management over multi-site opportunistic resources.
//  2. HDFS on the grid — namenode on a stable central server, site-aware
//     placement, replication 10, 30 s heartbeat recheck, and the zombie-
//     datanode fix (periodic working-directory probe).
//  3. MapReduce on the grid — jobtracker on the central server, FIFO
//     scheduling with site locality, 1 map + 1 reduce slot per glidein
//     (grid jobs are single-core allocations), 30 s tracker expiry, and
//     optionally the §VI multi-copy task extension (mr.task_copies).
// HogConfig holds each setting once: HOG's values are the defaults of its
// hdfs and mr members, which the cluster hands to the masters as given,
// and the optional gray-failure quarantine runs only when configured.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/grid/grid.h"
#include "src/hdfs/datanode.h"
#include "src/health/quarantine.h"
#include "src/hdfs/dfs_client.h"
#include "src/hdfs/namenode.h"
#include "src/hdfs/repl_controller.h"
#include "src/mapreduce/jobtracker.h"
#include "src/mapreduce/tasktracker.h"
#include "src/net/flow_network.h"
#include "src/sim/simulation.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace hogsim::hog {

struct HogConfig {
  // --- HOG's Hadoop modifications (§III.B, §IV.D.1): replication 10, a
  // 30 s heartbeat recheck on both masters and the 3-minute working-
  // directory probe; every other knob is stock. A caller changing a value
  // both masters share (recheck, probe, detector) writes both fields. ---
  hdfs::HdfsConfig hdfs{.default_replication = 10,
                        .heartbeat_recheck = 30 * kSecond,
                        .disk_check_interval = 3 * kMinute};
  mr::MrConfig mr{.tracker_expiry = 30 * kSecond,
                  .disk_check_interval = 3 * kMinute};
  bool site_awareness = true;  // false = flat topology (ablation)

  /// Gray-failure quarantine (src/health): when engaged, the cluster runs
  /// a Quarantine fed by both masters — flapping or degraded nodes enter
  /// probation, the scheduler and placement steer away from them, and the
  /// RF controller prices their replicas at elevated loss risk. Empty by
  /// default: no Quarantine is built.
  std::optional<health::QuarantineConfig> quarantine;

  // --- Worker shape (§IV.A): one core per glidein ---
  int map_slots_per_node = 1;
  int reduce_slots_per_node = 1;

  // --- Central server ---
  Rate master_nic = Gbps(1.0);
  Rate master_uplink = Gbps(10.0);

  // --- The five OSG sites of Listing 1 (defaults populated in .cc) ---
  std::vector<grid::SiteConfig> sites;

  grid::GridConfig grid;

  /// Network model knobs (latencies, WAN per-flow cap, §VI PKI overhead).
  net::FlowNetworkConfig net;

  /// Adaptive replication (src/hdfs/repl_controller.h). With
  /// repl.availability_target > 0 the cluster runs a ReplController that
  /// right-sizes per-block RF between repl.min_replication and
  /// repl.max_replication; hdfs.default_replication then only sets the
  /// initial placement width. Target <= 0 (default) keeps HOG's flat RF.
  hdfs::ReplControllerConfig repl;
};

/// How long SpinUp waits for each of its two targets.
constexpr SimDuration kSpinUpWait = 4 * kHour;

/// Returns the five-site OSG environment the paper restricts itself to,
/// with per-site pools large enough for the 1101-node experiment.
std::vector<grid::SiteConfig> DefaultOsgSites();

class HogCluster {
 public:
  explicit HogCluster(std::uint64_t seed, HogConfig config = {});
  ~HogCluster();
  HogCluster(const HogCluster&) = delete;
  HogCluster& operator=(const HogCluster&) = delete;

  sim::Simulation& sim() { return sim_; }
  net::FlowNetwork& network() { return net_; }
  grid::Grid& grid() { return *grid_; }
  hdfs::Namenode& namenode() { return *namenode_; }
  mr::JobTracker& jobtracker() { return *jobtracker_; }
  /// The adaptive replication controller, or nullptr when
  /// config.repl.availability_target <= 0 (flat-RF mode).
  hdfs::ReplController* repl_controller() { return repl_controller_.get(); }
  /// The gray-failure quarantine manager, or nullptr when
  /// config.quarantine is empty.
  health::Quarantine* quarantine() { return quarantine_.get(); }
  const HogConfig& config() const { return config_; }

  /// Elastic sizing: submit/remove Condor jobs until `count` glideins are
  /// requested (§IV.C).
  void RequestNodes(int count) { grid_->SetTargetNodes(count); }

  /// Applies a Condor submit file (Listing 1).
  void Submit(const grid::CondorSubmit& submit) { grid_->Submit(submit); }

  /// Runs the simulation until at least `count` workers are up (the paper
  /// waits for the configured maximum before starting the workload).
  /// Returns false if `deadline` passes first.
  bool WaitForNodes(int count, SimTime deadline);

  /// The spin-up rule every HOG experiment follows (§IV.C): request
  /// `nodes` glideins (a larger standing request, e.g. an over-request, is
  /// kept), wait up to kSpinUpWait for all of them, then — as an operator
  /// would under churn — up to kSpinUpWait more for 95% of them. Returns
  /// false if neither count was reached.
  bool SpinUp(int nodes);

  // --- Availability traces (Fig. 5) ---

  /// The jobtracker's view of live workers over time — the quantity the
  /// paper plots (it can exceed the target while dead nodes await their
  /// heartbeat timeout).
  const StepSeries& reported_nodes() const { return reported_nodes_; }
  /// Ground truth running glideins.
  const StepSeries& actual_nodes() const { return actual_nodes_; }

  /// Starts sampling both series (1 s resolution).
  void StartAvailabilityTrace();

 private:
  void OnNodeStart(grid::GridNode& node);
  void OnNodePreempt(grid::GridNode& node);
  void OnNodeZombie(grid::GridNode& node);

  struct Worker {
    std::unique_ptr<hdfs::Datanode> datanode;
    std::unique_ptr<mr::TaskTracker> tasktracker;
  };

  HogConfig config_;
  sim::Simulation sim_;
  net::FlowNetwork net_;
  net::NodeId master_ = net::kInvalidNode;
  std::unique_ptr<grid::Grid> grid_;
  std::unique_ptr<health::Quarantine> quarantine_;
  std::unique_ptr<hdfs::Namenode> namenode_;
  std::unique_ptr<hdfs::ReplController> repl_controller_;
  std::unique_ptr<mr::JobTracker> jobtracker_;
  std::unique_ptr<hdfs::DfsClient> dfs_;
  std::vector<std::unique_ptr<Worker>> workers_;  // one per lease, kept alive
  // hostname -> network node, filled as glideins start: the rack-suffixing
  // topology script (multi-rack net topologies) resolves through it.
  std::unordered_map<std::string, net::NodeId> net_node_by_host_;
  sim::PeriodicTimer trace_timer_;
  StepSeries reported_nodes_;
  StepSeries actual_nodes_;
};

}  // namespace hogsim::hog
