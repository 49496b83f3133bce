#include "src/hog/hog_cluster.h"

#include "src/hdfs/placement.h"
#include "src/hdfs/topology.h"
#include "src/workload/runner.h"

namespace hogsim::hog {

std::vector<grid::SiteConfig> DefaultOsgSites() {
  // The five sites of Listing 1. The two Fermilab clusters share a DNS
  // domain, so HOG's site-awareness rule folds them into one failure
  // domain even though they are distinct network/bandwidth domains — a
  // real consequence of detecting sites by hostname.
  auto site = [](std::string name, std::string domain, int pool) {
    grid::SiteConfig cfg;
    cfg.resource_name = std::move(name);
    cfg.domain = std::move(domain);
    cfg.pool_size = pool;
    return cfg;
  };
  return {
      site("FNAL_FERMIGRID", "fnal.gov", 400),
      site("USCMS-FNAL-WC1", "wc1.fnal.gov", 300),
      site("UCSDT2", "ucsd.edu", 250),
      site("AGLT2", "aglt2.org", 250),
      site("MIT_CMS", "mit.edu", 250),
  };
}

HogCluster::HogCluster(std::uint64_t seed, HogConfig config)
    : config_(std::move(config)), net_(sim_, config_.net) {
  Rng rng(seed);

  if (config_.sites.empty()) config_.sites = DefaultOsgSites();

  // The stable central server: namenode, jobtracker, and the web
  // repository hosting the 75 MB worker package, in its own "site".
  const net::SiteId central = net_.AddSite(config_.master_uplink);
  master_ = net_.AddNode(central, config_.master_nic);

  grid_ = std::make_unique<grid::Grid>(sim_, net_, master_,
                                       rng.Fork("grid"), config_.grid);
  for (const grid::SiteConfig& site : config_.sites) grid_->AddSite(site);

  if (config_.quarantine) {
    quarantine_ = std::make_unique<health::Quarantine>(
        sim_, *config_.quarantine, config_.mr.heartbeat_interval,
        [this](std::uint32_t node) {
          return static_cast<int>(net_.site_of(node));
        });
    quarantine_->Start();
  }

  hdfs::TopologyScript topology = config_.site_awareness
                                      ? hdfs::SiteAwarenessScript()
                                      : hdfs::FlatTopology();
  if (net_.MultiRack()) {
    // A multi-rack fabric (src/net/topo tor/fattree/rotor) refines the
    // site string with the node's physical rack index, making racks a
    // first-class HDFS failure domain: placement spreads across them,
    // LevelFor escalates on them, and SiteOfRack() recovers the site.
    // Single-rack topologies (star, tor:racks=1) keep the exact
    // pre-topology strings, which pins the placement byte-stream.
    topology = [this, base = std::move(topology)](std::string_view hostname) {
      std::string rack = base(hostname);
      const auto it = net_node_by_host_.find(std::string(hostname));
      if (it == net_node_by_host_.end()) return rack;
      if (net_.RackCount(net_.site_of(it->second)) <= 1) return rack;
      return rack + "/r" + std::to_string(net_.RackOf(it->second));
    };
  }
  auto placement = config_.site_awareness ? hdfs::MakeSiteAwarePlacement()
                                          : hdfs::MakeDefaultPlacement();
  namenode_ = std::make_unique<hdfs::Namenode>(sim_, net_, master_, topology,
                                               std::move(placement),
                                               rng.Fork("namenode"),
                                               config_.hdfs);
  namenode_->set_health(quarantine_.get());
  namenode_->Start();
  if (config_.repl.availability_target > 0) {
    repl_controller_ =
        std::make_unique<hdfs::ReplController>(*namenode_, config_.repl);
    repl_controller_->Start();
  }
  jobtracker_ = std::make_unique<mr::JobTracker>(sim_, net_, *namenode_,
                                                 master_, topology,
                                                 config_.mr);
  jobtracker_->set_health(quarantine_.get());
  jobtracker_->Start();
  dfs_ = std::make_unique<hdfs::DfsClient>(*namenode_);

  grid_->set_on_node_start([this](grid::GridNode& node) { OnNodeStart(node); });
  grid_->set_on_node_preempt(
      [this](grid::GridNode& node) { OnNodePreempt(node); });
  grid_->set_on_node_zombie(
      [this](grid::GridNode& node) { OnNodeZombie(node); });
  // Gray faults (src/fault slow-node / delay-heartbeats): propagate the
  // grid-level knob to the lease's live Hadoop daemons.
  grid_->set_on_node_slow([this](grid::GridNode& node, double factor) {
    if (node.id() >= workers_.size() || workers_[node.id()] == nullptr) return;
    workers_[node.id()]->tasktracker->set_compute_scale(factor);
  });
  grid_->set_on_node_jitter([this](grid::GridNode& node, SimDuration jitter) {
    if (node.id() >= workers_.size() || workers_[node.id()] == nullptr) return;
    workers_[node.id()]->tasktracker->set_heartbeat_jitter(jitter);
    workers_[node.id()]->datanode->set_heartbeat_jitter(jitter);
  });
}

HogCluster::~HogCluster() = default;

void HogCluster::OnNodeStart(grid::GridNode& node) {
  // The wrapper's final step: start the Hadoop daemons (datanode +
  // tasktracker) in the glidein's working directory, in the wrapper's own
  // process tree (the fixed, non-double-forking launch). The hostname map
  // must be current before the daemons register: the rack-suffixing
  // topology script resolves through it.
  net_node_by_host_[node.hostname()] = node.net_node();
  auto worker = std::make_unique<Worker>();
  worker->datanode = std::make_unique<hdfs::Datanode>(
      sim_, net_, *namenode_, node.hostname(), node.net_node(), node.disk());
  worker->datanode->Start();
  worker->tasktracker = std::make_unique<mr::TaskTracker>(
      sim_, net_, *jobtracker_, *dfs_, node.hostname(), node.net_node(),
      node.disk(), config_.map_slots_per_node, config_.reduce_slots_per_node);
  worker->tasktracker->Start();
  while (workers_.size() <= node.id()) workers_.push_back(nullptr);
  workers_[node.id()] = std::move(worker);
}

void HogCluster::OnNodePreempt(grid::GridNode& node) {
  if (node.id() >= workers_.size() || workers_[node.id()] == nullptr) return;
  Worker& worker = *workers_[node.id()];
  // Clean preemption: the whole process tree is killed. The masters learn
  // of the loss only through heartbeat silence.
  worker.datanode->Shutdown();
  worker.tasktracker->Shutdown();
  // The glidein is gone for good; a future lease at this network slot is
  // a fresh node and must not inherit its predecessor's probation.
  if (quarantine_ != nullptr) quarantine_->OnNodeDead(node.net_node());
}

void HogCluster::OnNodeZombie(grid::GridNode& node) {
  if (node.id() >= workers_.size() || workers_[node.id()] == nullptr) return;
  Worker& worker = *workers_[node.id()];
  // §IV.D.1: the daemons double-forked out of the wrapper's process tree;
  // the site killed the wrapper and deleted the working directory, but
  // both daemons live on. With disk_check_interval > 0 they will probe,
  // notice, and shut themselves down; otherwise they haunt the cluster.
  worker.datanode->EnterZombieMode();
  worker.tasktracker->EnterZombieMode();
  // Once both daemons exit, the site's slot is truly reclaimed.
  auto reap = [this, id = node.id()] {
    if (workers_[id]->datanode->process_alive() ||
        workers_[id]->tasktracker->process_alive()) {
      return;
    }
    grid_->KillZombie(id);
  };
  worker.datanode->set_on_exit(reap);
  worker.tasktracker->set_on_exit(reap);
  if (quarantine_ != nullptr) quarantine_->OnNodeDead(node.net_node());
}

bool HogCluster::WaitForNodes(int count, SimTime deadline) {
  return workload::RunSimUntil(
      sim_, [this, count] { return grid_->running_nodes() >= count; },
      deadline);
}

bool HogCluster::SpinUp(int nodes) {
  if (grid_->target_nodes() < nodes) RequestNodes(nodes);
  return WaitForNodes(nodes, sim_.now() + kSpinUpWait) ||
         WaitForNodes(nodes * 95 / 100, sim_.now() + kSpinUpWait);
}

void HogCluster::StartAvailabilityTrace() {
  reported_nodes_.Record(sim_.now(), jobtracker_->live_trackers());
  actual_nodes_.Record(sim_.now(), grid_->running_nodes());
  trace_timer_.Start(sim_, kSecond, [this] {
    reported_nodes_.Record(sim_.now(), jobtracker_->live_trackers());
    actual_nodes_.Record(sim_.now(), grid_->running_nodes());
  });
}

}  // namespace hogsim::hog
