// The one cluster fixture of the HDFS and MapReduce tests: a small,
// static deployment of the paper's §III components. A central server
// runs the namenode (and, for MapReduce tests, the jobtracker); workers
// join one call at a time, each a disk with a datanode, a tasktracker, or
// both. Every test file lays out its own sites and workers in a few lines
// on top of it.
//
// Node ids, site ids and event sequence numbers follow construction
// order, so the fixture keeps one: the master's site and node, the
// namenode, the jobtracker, then the workers in the order the test adds
// them, each worker's datanode started before its tasktracker.
// Everything is seeded: two clusters built alike replay byte-identical
// simulations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/check/auditor.h"
#include "src/hdfs/datanode.h"
#include "src/hdfs/dfs_client.h"
#include "src/hdfs/namenode.h"
#include "src/hdfs/placement.h"
#include "src/hdfs/topology.h"
#include "src/mapreduce/jobtracker.h"
#include "src/mapreduce/tasktracker.h"
#include "src/net/flow_network.h"
#include "src/sim/simulation.h"
#include "src/storage/disk.h"
#include "src/util/rng.h"
#include "src/workload/runner.h"

namespace hogsim {

struct TestClusterConfig {
  /// The master's site uplink. Single-rack MapReduce tests put their
  /// workers on this site.
  Rate master_uplink = Gbps(10);
  /// The namenode's and the jobtracker's rack script.
  hdfs::TopologyScript topology = hdfs::SiteAwarenessScript();
  std::unique_ptr<hdfs::BlockPlacementPolicy> (*placement)() =
      hdfs::MakeSiteAwarePlacement;
  /// Seed of the namenode's placement RNG (block locations, and through
  /// them which trackers are node-local for which map).
  std::uint64_t seed = 11;
  hdfs::HdfsConfig hdfs = {};
  /// Set, a jobtracker runs and every worker also runs a tasktracker.
  std::optional<mr::MrConfig> mr = {};
  net::FlowNetworkConfig net = {};
  /// Every worker's disk and map slots; each tasktracker has one reduce
  /// slot.
  Bytes disk = 20 * kGiB;
  Rate disk_rate = MiBps(80);
  int map_slots = 2;
};

/// Per-job knobs of TestCluster::Submit.
struct TestJob {
  std::string user = {};
  std::string queue = {};
  double map_rate_mibps = 20;
  double reduce_rate_mibps = 20;
};

/// Input bytes of a job with `maps` full-block maps.
constexpr Bytes Maps(int maps) { return static_cast<Bytes>(maps) * 64 * kMiB; }

class TestCluster {
 public:
  /// Builds the masters, then runs `layout`, which adds the sites and
  /// workers.
  explicit TestCluster(TestClusterConfig config,
                       const std::function<void(TestCluster&)>& layout = {})
      : config_(std::move(config)), net_(sim_, config_.net) {
    master_site_ = net_.AddSite(config_.master_uplink);
    master_ = net_.AddNode(master_site_, Gbps(1));
    nn_ = std::make_unique<hdfs::Namenode>(
        sim_, net_, master_, config_.topology, config_.placement(),
        Rng(config_.seed), config_.hdfs);
    nn_->Start();
    if (config_.mr) {
      jt_ = std::make_unique<mr::JobTracker>(sim_, net_, *nn_, master_,
                                             config_.topology, *config_.mr);
      jt_->Start();
    }
    client_ = std::make_unique<hdfs::DfsClient>(*nn_);
    if (layout) layout(*this);
  }

  net::SiteId AddSite(Rate uplink) { return net_.AddSite(uplink); }

  /// Adds one worker on `site`: a disk with a datanode (unless
  /// `datanode` is false) and, when a jobtracker runs, a tasktracker.
  /// Returns its index.
  std::size_t AddWorker(net::SiteId site, std::string hostname,
                        bool datanode = true) {
    const net::NodeId node = net_.AddNode(site, Gbps(1));
    disks_.push_back(std::make_unique<storage::Disk>(sim_, config_.disk,
                                                     config_.disk_rate));
    datanodes_.emplace_back();
    trackers_.emplace_back();
    if (datanode) {
      datanodes_.back() = std::make_unique<hdfs::Datanode>(
          sim_, net_, *nn_, hostname, node, *disks_.back());
      datanodes_.back()->Start();
    }
    if (jt_) {
      trackers_.back() = std::make_unique<mr::TaskTracker>(
          sim_, net_, *jt_, *client_, hostname, node, *disks_.back(),
          config_.map_slots, /*reduce_slots=*/1);
      trackers_.back()->Start();
    }
    return disks_.size() - 1;
  }

  /// Adds `sites` sites behind `uplink`, site by site, each with
  /// `per_site` workers; `hostname(s, n)` names worker n of site s.
  void AddSites(int sites, int per_site, Rate uplink,
                const std::function<std::string(int, int)>& hostname) {
    for (int s = 0; s < sites; ++s) {
      const net::SiteId site = AddSite(uplink);
      for (int n = 0; n < per_site; ++n) AddWorker(site, hostname(s, n));
    }
  }

  /// Imports `input` bytes and submits one job over them.
  mr::JobId Submit(Bytes input, int reduces, TestJob job = {}) {
    mr::JobSpec spec;
    spec.name = "j" + std::to_string(jt_->job_count());
    spec.input =
        nn_->ImportFile("in" + std::to_string(jt_->job_count()), input);
    spec.num_reduces = reduces;
    spec.user = std::move(job.user);
    spec.queue = std::move(job.queue);
    spec.map_compute_rate = MiBps(job.map_rate_mibps);
    spec.reduce_compute_rate = MiBps(job.reduce_rate_mibps);
    return jt_->SubmitJob(std::move(spec));
  }

  bool RunToCompletion(SimTime deadline = 8 * kHour) {
    return workload::RunSimUntil(
        sim_, [&] { return jt_->AllJobsDone(); }, deadline);
  }

  /// Kills worker `i`'s processes and drops its flows and disk I/O; the
  /// masters learn through heartbeat expiry, as after a grid preemption.
  void KillWorker(std::size_t i) {
    if (datanodes_[i]) datanodes_[i]->Shutdown();
    if (trackers_[i]) trackers_[i]->Shutdown();
    net_.FailFlowsAtNode(trackers_[i] ? trackers_[i]->net_node()
                                      : datanodes_[i]->net_node());
    disks_[i]->CancelAll();
  }

  /// Arms a fail-fast cross-layer auditor (src/check) over the cluster.
  /// The returned auditor must not outlive the cluster.
  std::unique_ptr<check::Auditor> ArmAuditor(SimDuration period) {
    check::Auditor::Options opts;
    opts.fail_fast = true;
    opts.period = period;
    auto auditor = std::make_unique<check::Auditor>(sim_, nn_.get(), jt_.get(),
                                                    nullptr, opts);
    auditor->Start();
    return auditor;
  }

  /// Distinct sites (racks) holding a replica of `block`.
  std::set<std::string> SitesOf(hdfs::BlockId block) const {
    std::set<std::string> sites;
    for (hdfs::DatanodeId dn : nn_->BlockHolders(block)) {
      sites.insert(nn_->RackOf(dn));
    }
    return sites;
  }

  sim::Simulation& sim() { return sim_; }
  net::FlowNetwork& net() { return net_; }
  net::SiteId master_site() const { return master_site_; }
  net::NodeId master() const { return master_; }
  hdfs::Namenode& nn() { return *nn_; }
  mr::JobTracker& jt() { return *jt_; }
  hdfs::DfsClient& client() { return *client_; }
  std::size_t worker_count() const { return disks_.size(); }
  storage::Disk& disk(std::size_t i) { return *disks_[i]; }
  hdfs::Datanode& datanode(std::size_t i) { return *datanodes_[i]; }
  mr::TaskTracker& tracker(std::size_t i) { return *trackers_[i]; }

 private:
  TestClusterConfig config_;
  sim::Simulation sim_;
  net::FlowNetwork net_;
  net::SiteId master_site_ = 0;
  net::NodeId master_ = net::kInvalidNode;
  std::unique_ptr<hdfs::Namenode> nn_;
  std::unique_ptr<mr::JobTracker> jt_;
  std::unique_ptr<hdfs::DfsClient> client_;
  // Worker i's disk and daemons (null where it runs none); the daemons
  // die before any disk.
  std::vector<std::unique_ptr<storage::Disk>> disks_;
  std::vector<std::unique_ptr<hdfs::Datanode>> datanodes_;
  std::vector<std::unique_ptr<mr::TaskTracker>> trackers_;
};

// ---- Layouts shared by several test files ---------------------------------

/// Names worker n of site s "<node><n>.<site><s>.edu", for AddSites; the
/// site-awareness script racks it at "/<site><s>.edu".
inline auto GridHost(std::string node, std::string site) {
  return [node, site](int s, int n) {
    return node + std::to_string(n) + "." + site + std::to_string(s) + ".edu";
  };
}

/// An HDFS-only cluster: `sites` sites behind 2 Gbps uplinks with
/// `per_site` datanodes each, on 60 MiB/s disks of `disk` bytes.
/// Site-aware by default; otherwise flat topology and default placement.
inline TestCluster HdfsCluster(int sites, int per_site,
                               hdfs::HdfsConfig config, bool site_aware = true,
                               Bytes disk = 10 * kGiB) {
  return TestCluster(
      {.topology = site_aware ? hdfs::SiteAwarenessScript()
                              : hdfs::FlatTopology(),
       .placement = site_aware ? hdfs::MakeSiteAwarePlacement
                               : hdfs::MakeDefaultPlacement,
       .seed = 7,
       .hdfs = std::move(config),
       .disk = disk,
       .disk_rate = MiBps(60)},
      [&](TestCluster& c) {
        c.AddSites(sites, per_site, Gbps(2), GridHost("w", "site"));
      });
}

/// A single-rack Hadoop cluster: `workers` workers on the master's own
/// 100 Gbps site, flat topology, default placement.
inline TestCluster MrCluster(int workers, mr::MrConfig mr = {},
                             hdfs::HdfsConfig hdfs = {}, int map_slots = 2,
                             Bytes disk = 20 * kGiB) {
  return TestCluster(
      {.master_uplink = Gbps(100),
       .topology = hdfs::FlatTopology(),
       .placement = hdfs::MakeDefaultPlacement,
       .hdfs = std::move(hdfs),
       .mr = std::move(mr),
       .disk = disk,
       .map_slots = map_slots},
      [&](TestCluster& c) {
        for (int i = 0; i < workers; ++i) {
          c.AddWorker(c.master_site(),
                      "w" + std::to_string(i) + ".cluster.local");
        }
      });
}

/// Adds a worker on grid site `site` of the scheduler suites' cluster
/// (net site 1 + `site`: the master's site comes first).
inline void AddSchedWorker(TestCluster& c, int site) {
  c.AddWorker(static_cast<net::SiteId>(1 + site),
              "w" + std::to_string(c.worker_count()) + ".site" +
                  std::to_string(site) + ".edu");
}

/// The scheduler suites' cluster: three sites behind 10 Gbps uplinks,
/// four workers each, site-aware placement seeded by `seed`, so all three
/// locality tiers (node-local, rack-local, off-site) are reachable.
inline TestCluster SchedCluster(mr::MrConfig mr, std::uint64_t seed = 11) {
  return TestCluster({.seed = seed, .mr = std::move(mr)}, [](TestCluster& c) {
    for (int s = 0; s < 3; ++s) {
      c.AddSite(Gbps(10));
      for (int n = 0; n < 4; ++n) AddSchedWorker(c, s);
    }
  });
}

}  // namespace hogsim
