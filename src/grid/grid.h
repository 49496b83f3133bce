// Opportunistic-grid substrate (the paper's Open Science Grid stand-in).
//
// A Grid owns a set of Sites. Each site hosts a bounded pool of worker
// slots; the user (HOG) requests glideins through a Condor-like interface
// and the GlideinManager keeps the requested number running: every glidein
// passes through submission -> remote batch queue delay -> wrapper startup
// (environment init + 75 MB payload download from the central repository)
// -> running, until the site preempts it.
//
// Preemption follows the paper's description: per-node independent
// preemption (the job exceeded its allocation, the machine owner reclaimed
// it) plus correlated site "bursts" (a higher-priority user submits many
// jobs and evicts a batch of glideins simultaneously — the failure mode
// that motivates replication factor 10). With `zombie_probability > 0` a
// preemption may leave the daemons running while their working directory
// is deleted, reproducing the abandoned-datanode problem of §IV.D.1.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/grid/condor.h"
#include "src/net/flow_network.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/storage/disk.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace hogsim::check {
class Auditor;
}  // namespace hogsim::check

namespace hogsim::grid {

using GridNodeId = std::uint32_t;
constexpr GridNodeId kInvalidGridNode = 0xFFFFFFFFu;

/// Static description of one grid site.
struct SiteConfig {
  std::string resource_name;  // GLIDEIN_ResourceName, e.g. "FNAL_FERMIGRID"
  std::string domain;         // DNS suffix of its workers, e.g. "fnal.gov"
  int pool_size = 400;        // max concurrent glideins the site will host

  Rate node_nic = Gbps(1);
  /// Site WAN uplink shared by all its glideins; far below aggregate NIC
  /// capacity, which is what makes inter-site shuffle expensive (§III.B).
  Rate uplink = Gbps(2);

  // Acquisition: remote batch queue wait before a submitted glidein starts.
  double queue_delay_mean_s = 180.0;

  // Preemption: per-node exponential lifetime, plus correlated bursts.
  // Defaults match the paper's observed volatility (Fig. 5: the mean
  // number of live nodes sat ~25% below the configured maximum).
  double node_mtbf_s = 1.5 * 3600;       // mean single-node lifetime
  double burst_interval_s = 900.0;       // mean gap between burst events
  double burst_fraction = 0.12;          // mean fraction of nodes lost/burst

  // Per-node hardware: opportunistic workers get a scratch-space slice and
  // share spindles with the host's own workload.
  Bytes node_disk = 100 * kGiB;
  Rate node_disk_bw = MiBps(30.0);
};

/// Grid-wide knobs.
struct GridConfig {
  Bytes wrapper_payload = 75 * kMiB;  // Hadoop executables package (§III.A)
  double env_init_mean_s = 5.0;       // OSG environment setup + extraction
  double daemon_start_s = 3.0;        // datanode/tasktracker launch
  double zombie_probability = 0.0;    // §IV.D.1 double-fork escape odds
};

enum class NodeState { kQueued, kStarting, kRunning, kZombie, kDead };

/// How a forced preemption resolves the zombie dice (§IV.D.1).
/// kSiteDefault rolls `GridConfig::zombie_probability` as organic
/// preemptions do; kNever/kAlways pin the outcome (clean trim vs. the
/// fault injector's `zombify` directive).
enum class ZombieMode { kSiteDefault, kNever, kAlways };

/// One glidein: a leased worker node. Identity (hostname, network endpoint,
/// disk) lives for exactly one lease; replacements are brand-new nodes.
class GridNode {
 public:
  GridNode(GridNodeId id, std::string hostname, std::uint32_t site_index,
           net::NodeId net_node, std::unique_ptr<storage::Disk> disk)
      : id_(id),
        hostname_(std::move(hostname)),
        site_index_(site_index),
        net_node_(net_node),
        disk_(std::move(disk)) {}

  GridNodeId id() const { return id_; }
  const std::string& hostname() const { return hostname_; }
  std::uint32_t site_index() const { return site_index_; }
  net::NodeId net_node() const { return net_node_; }
  storage::Disk& disk() { return *disk_; }
  const storage::Disk& disk() const { return *disk_; }

  NodeState state() const { return state_; }
  bool running() const { return state_ == NodeState::kRunning; }
  /// True while the node's processes exist (running or zombie).
  bool processes_alive() const {
    return state_ == NodeState::kRunning || state_ == NodeState::kZombie;
  }

 private:
  friend class Grid;
  GridNodeId id_;
  std::string hostname_;
  std::uint32_t site_index_;
  net::NodeId net_node_;
  std::unique_ptr<storage::Disk> disk_;
  NodeState state_ = NodeState::kQueued;
  SimTime submitted_at_ = 0;  // lease submission time; start of acquire span
  sim::EventHandle lifetime_event_;
};

class Grid {
 public:
  /// `repo_node` is the network endpoint of the central web server hosting
  /// the 75 MB worker package (the paper's "central repository").
  Grid(sim::Simulation& sim, net::FlowNetwork& net, net::NodeId repo_node,
       Rng rng, GridConfig config = {});
  // Scheduled callbacks capture `this`: the object must never relocate
  // (guaranteed-RVO returns are fine; copies and moves are not).
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  /// Registers a site; must happen before any submission.
  void AddSite(SiteConfig config);

  std::size_t site_count() const { return sites_.size(); }
  const SiteConfig& site_config(std::size_t i) const {
    return sites_[i].config;
  }
  net::SiteId net_site(std::size_t i) const { return sites_[i].net_site; }

  /// Condor-like elastic sizing: the GlideinManager submits or removes
  /// glideins to keep `count` of them queued/starting/running.
  void SetTargetNodes(int count);
  int target_nodes() const { return target_; }

  /// Applies a parsed submit file: restricts placement to the named
  /// GLIDEIN_ResourceName sites and raises the target by queue_count.
  /// Throws std::invalid_argument if a requirement names an unknown site.
  void Submit(const CondorSubmit& submit);

  /// Currently running (usable) node count — the paper's Fig. 5 metric.
  int running_nodes() const { return running_; }
  int zombie_nodes() const { return zombies_; }

  /// Fired when a glidein finishes its wrapper startup and its daemons are
  /// up. The HOG layer attaches datanode/tasktracker here.
  void set_on_node_start(std::function<void(GridNode&)> cb) {
    on_node_start_ = std::move(cb);
  }

  /// Fired when a site cleanly preempts a glidein (process tree killed).
  void set_on_node_preempt(std::function<void(GridNode&)> cb) {
    on_node_preempt_ = std::move(cb);
  }

  /// Fired when a preemption leaves zombie daemons behind (§IV.D.1): the
  /// working directory is gone (disk unwritable) but processes survive.
  void set_on_node_zombie(std::function<void(GridNode&)> cb) {
    on_node_zombie_ = std::move(cb);
  }

  /// Terminates a zombie's surviving processes (the daemon self-shutdown
  /// path of the paper's fix). Also used by sites that eventually reap.
  void KillZombie(GridNodeId id);

  /// Forces an immediate correlated preemption at site `site_index` that
  /// evicts `fraction` of its running glideins. Drives ablation benches,
  /// the chaos injector and the site-storm example (fraction 1.0 =
  /// whole-site outage). Non-positive (or NaN) fractions are a no-op; any
  /// positive fraction evicts at least one node when the site has any
  /// running, so small sites are not immune to small bursts. Returns the
  /// number of nodes preempted.
  int PreemptSiteFraction(std::size_t site_index, double fraction);

  // ---- Fault-injection hooks (src/fault/injector.h) ----------------------
  // Each costs nothing on the organic paths beyond a single comparison;
  // see DESIGN.md's zero-cost-when-unused rule.

  /// Preempts up to `count` running glideins at the site — oldest leases
  /// first, so replayed preemption traces are deterministic and do not
  /// perturb the site's RNG stream. Returns the number actually preempted.
  int PreemptNodes(std::size_t site_index, int count,
                   ZombieMode mode = ZombieMode::kSiteDefault);

  /// Halts glidein acquisition at the site until now + `duration`: the
  /// site stops matching new submissions and queued glideins do not start
  /// until the freeze lifts. Repeated freezes extend, never shorten.
  void FreezeAcquisition(std::size_t site_index, SimDuration duration);

  /// Scales the site's batch-queue wait for glideins submitted from now on
  /// (factor 3.0 = the queue got three times slower; 1.0 restores).
  void SetAcquisitionDelayFactor(std::size_t site_index, double factor);

  /// When acquisition at the site is frozen: the sim time the freeze lifts
  /// (0 = not frozen, never frozen).
  SimTime acquisition_frozen_until(std::size_t site_index) const {
    return sites_[site_index].frozen_until;
  }
  double acquisition_delay_factor(std::size_t site_index) const {
    return sites_[site_index].queue_delay_factor;
  }

  // ---- Gray faults: the node stays up and heartbeating, but misbehaves.
  // The grid only routes these to the daemon layer (HOG attaches the
  // callbacks below); an unwired grid reports them as unapplied.

  /// Scales compute on one running node's daemons (factor 1 restores).
  /// False when the lease is not running or no slow callback is attached.
  bool SetNodeComputeScale(GridNodeId id, double factor);

  /// Sets the max extra per-heartbeat delay on one running node's daemons
  /// (0 restores). False when not running or no jitter callback attached.
  bool SetNodeHeartbeatJitter(GridNodeId id, SimDuration jitter);

  /// Freezes the node's disk IO for `duration` (intermittent stall); the
  /// disk thaws by itself. False when the lease has no live processes.
  bool StallNodeDisk(GridNodeId id, SimDuration duration);

  /// Fired by SetNodeComputeScale with the new factor.
  void set_on_node_slow(std::function<void(GridNode&, double)> cb) {
    on_node_slow_ = std::move(cb);
  }
  /// Fired by SetNodeHeartbeatJitter with the new jitter.
  void set_on_node_jitter(std::function<void(GridNode&, SimDuration)> cb) {
    on_node_jitter_ = std::move(cb);
  }

  GridNode* node(GridNodeId id) {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  const GridNode* node(GridNodeId id) const {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  std::size_t total_leases() const { return nodes_.size(); }

  /// All currently running node ids (deterministic order).
  std::vector<GridNodeId> RunningNodeIds() const;

  // Lifetime counters (for experiment reporting).
  std::uint64_t preemptions() const { return ins_.node_preempted.value(); }
  std::uint64_t zombie_events() const { return ins_.node_zombied.value(); }

 private:
  // The invariant auditor (src/check) reads — never mutates — the node
  // table and census counters to cross-check them against node states.
  friend class ::hogsim::check::Auditor;

  struct Site {
    SiteConfig config;
    net::SiteId net_site;
    // Queued + starting + running leases (zombies left the site's pool:
    // the batch slot was reclaimed even though the daemons escaped).
    int active = 0;
    std::uint64_t hostname_counter = 0;
    sim::EventHandle burst_event;
    Rng rng{0};
    // Fault-injection state; inert (0 / 1.0) unless an injector touches it.
    SimTime frozen_until = 0;
    double queue_delay_factor = 1.0;
  };

  // Observability handles, registered once at construction (obs/metrics.h).
  // Names follow the subsystem.noun.verb convention (docs/OBSERVABILITY.md).
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& m)
        : glidein_submitted(m.GetCounter("grid.glidein.submitted")),
          glidein_started(m.GetCounter("grid.glidein.started")),
          node_preempted(m.GetCounter("grid.node.preempted")),
          node_zombied(m.GetCounter("grid.node.zombied")),
          zombie_killed(m.GetCounter("grid.zombie.killed")),
          site_burst(m.GetCounter("grid.site.burst")),
          nodes_running(m.GetGauge("grid.nodes.running")),
          nodes_zombie(m.GetGauge("grid.nodes.zombie")),
          acquire_latency_s(m.GetHistogram("grid.glidein.acquire_latency_s")) {}
    obs::Counter& glidein_submitted;
    obs::Counter& glidein_started;
    obs::Counter& node_preempted;
    obs::Counter& node_zombied;
    obs::Counter& zombie_killed;
    obs::Counter& site_burst;
    obs::Gauge& nodes_running;
    obs::Gauge& nodes_zombie;
    obs::Histogram& acquire_latency_s;
  };

  void Reconcile();  // submit replacements / trim to target
  void SubmitGlidein();
  void StartGlidein(GridNodeId id);
  void FinishStartup(GridNodeId id);
  void SchedulePreemption(GridNodeId id);
  void Preempt(GridNodeId id, ZombieMode mode);
  void ArmBurst(std::size_t site_index);
  std::size_t PickSite();

  sim::Simulation& sim_;
  net::FlowNetwork& net_;
  net::NodeId repo_node_;
  Rng rng_;
  GridConfig config_;
  Instruments ins_;
  std::vector<Site> sites_;
  std::vector<bool> site_allowed_;
  std::vector<std::unique_ptr<GridNode>> nodes_;
  int target_ = 0;
  int active_leases_ = 0;  // queued + starting + running
  int running_ = 0;
  int zombies_ = 0;
  std::function<void(GridNode&)> on_node_start_;
  std::function<void(GridNode&)> on_node_preempt_;
  std::function<void(GridNode&)> on_node_zombie_;
  std::function<void(GridNode&, double)> on_node_slow_;
  std::function<void(GridNode&, SimDuration)> on_node_jitter_;
};

}  // namespace hogsim::grid
