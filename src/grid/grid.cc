#include "src/grid/grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/util/log.h"

namespace hogsim::grid {

Grid::Grid(sim::Simulation& sim, net::FlowNetwork& net, net::NodeId repo_node,
           Rng rng, GridConfig config)
    : sim_(sim),
      net_(net),
      repo_node_(repo_node),
      rng_(rng),
      config_(config),
      ins_(sim.obs().metrics()) {}

void Grid::AddSite(SiteConfig config) {
  Site site;
  site.net_site = net_.AddSite(config.uplink);
  site.rng = rng_.Fork("site:" + config.resource_name);
  site.config = std::move(config);
  sites_.push_back(std::move(site));
  site_allowed_.push_back(true);
  const std::size_t index = sites_.size() - 1;
  if (sites_[index].config.burst_interval_s > 0.0) ArmBurst(index);
}

void Grid::SetTargetNodes(int count) {
  assert(count >= 0);
  target_ = count;
  Reconcile();
}

void Grid::Submit(const CondorSubmit& submit) {
  std::vector<bool> allowed(sites_.size(), submit.resources.empty());
  for (const auto& name : submit.resources) {
    bool matched = false;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (sites_[i].config.resource_name == name) {
        allowed[i] = true;
        matched = true;
      }
    }
    if (!matched) {
      throw std::invalid_argument("unknown GLIDEIN_ResourceName: " + name);
    }
  }
  site_allowed_ = std::move(allowed);
  SetTargetNodes(target_ + submit.queue_count);
}

std::size_t Grid::PickSite() {
  // Weight sites by free pool capacity so large sites absorb more load,
  // mirroring how a central Condor pool matches idle slots.
  std::vector<double> weights(sites_.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (!site_allowed_[i]) continue;
    if (sites_[i].frozen_until > sim_.now()) continue;  // injector freeze
    const int free = sites_[i].config.pool_size - sites_[i].active;
    if (free > 0) {
      weights[i] = static_cast<double>(free);
      total += weights[i];
    }
  }
  if (total <= 0.0) return sites_.size();  // everything full
  return rng_.WeightedIndex(weights.data(), weights.size());
}

void Grid::Reconcile() {
  // Trim: remove queued/starting leases first (condor_rm of idle jobs),
  // then preempt running nodes cleanly.
  while (active_leases_ > target_) {
    GridNodeId victim = kInvalidGridNode;
    for (const auto& n : nodes_) {
      if (n->state_ == NodeState::kQueued ||
          n->state_ == NodeState::kStarting) {
        victim = n->id();
        break;
      }
    }
    if (victim == kInvalidGridNode) {
      for (const auto& n : nodes_) {
        if (n->state_ == NodeState::kRunning) {
          victim = n->id();
          break;
        }
      }
    }
    if (victim == kInvalidGridNode) break;
    Preempt(victim, ZombieMode::kNever);
  }
  // Grow: submit new glideins while sites have capacity.
  while (active_leases_ < target_) {
    const std::size_t site = PickSite();
    if (site >= sites_.size()) break;  // grid saturated; retry on next event
    SubmitGlidein();
  }
}

void Grid::SubmitGlidein() {
  const std::size_t site_index = PickSite();
  assert(site_index < sites_.size());
  Site& site = sites_[site_index];

  const auto id = static_cast<GridNodeId>(nodes_.size());
  std::string hostname = "g" + std::to_string(site.hostname_counter++) + "." +
                         site.config.domain;
  const net::NodeId net_node =
      net_.AddNode(site.net_site, site.config.node_nic);
  auto disk = std::make_unique<storage::Disk>(sim_, site.config.node_disk,
                                              site.config.node_disk_bw);
  nodes_.push_back(std::make_unique<GridNode>(
      id, std::move(hostname), static_cast<std::uint32_t>(site_index),
      net_node, std::move(disk)));
  GridNode& node = *nodes_.back();

  ++site.active;
  ++active_leases_;
  ins_.glidein_submitted.Add();
  node.submitted_at_ = sim_.now();

  const double wait = site.rng.Exponential(site.config.queue_delay_mean_s) *
                      site.queue_delay_factor;
  node.lifetime_event_ = sim_.ScheduleAfter(
      FromSeconds(wait), [this, id] { StartGlidein(id); });
}

void Grid::StartGlidein(GridNodeId id) {
  GridNode& node = *nodes_[id];
  if (node.state_ != NodeState::kQueued) return;
  Site& site = sites_[node.site_index_];
  if (site.frozen_until > sim_.now()) {
    // Acquisition is frozen: the batch system holds the glidein until the
    // freeze lifts, then it starts immediately (it already waited).
    node.lifetime_event_ = sim_.ScheduleAt(site.frozen_until,
                                           [this, id] { StartGlidein(id); });
    return;
  }
  node.state_ = NodeState::kStarting;

  // Wrapper step 1: initialize the OSG operating environment, then step
  // 2-3: download and extract the 75 MB worker package from the central
  // repository. Concurrent startups contend on the repository's uplink,
  // which naturally staggers large scale-ups.
  const double env_init = site.rng.Exponential(config_.env_init_mean_s);
  node.lifetime_event_ = sim_.ScheduleAfter(FromSeconds(env_init), [this, id] {
    GridNode& n = *nodes_[id];
    if (n.state_ != NodeState::kStarting) return;
    net_.StartFlow(repo_node_, n.net_node(), config_.wrapper_payload,
                   [this, id](bool ok) {
                     GridNode& m = *nodes_[id];
                     if (!ok || m.state_ != NodeState::kStarting) return;
                     // Step 4: start the Hadoop daemons.
                     m.lifetime_event_ = sim_.ScheduleAfter(
                         FromSeconds(config_.daemon_start_s),
                         [this, id] { FinishStartup(id); });
                   });
  });
}

void Grid::FinishStartup(GridNodeId id) {
  GridNode& node = *nodes_[id];
  if (node.state_ != NodeState::kStarting) return;
  node.state_ = NodeState::kRunning;
  ++running_;
  ins_.glidein_started.Add();
  ins_.nodes_running.Set(running_);
  ins_.acquire_latency_s.Observe(ToSeconds(sim_.now() - node.submitted_at_));
  obs::Tracer& tracer = sim_.obs().tracer();
  tracer.EmitSpan("grid", "glidein.acquire", node.submitted_at_,
                  sim_.now() - node.submitted_at_, id);
  tracer.EmitCounter("grid", "nodes.running", sim_.now(), running_);
  SchedulePreemption(id);
  HOG_LOG(kInfo, sim_.now(), "grid")
      << "glidein up: " << node.hostname() << " (running=" << running_ << ")";
  if (on_node_start_) on_node_start_(node);
}

void Grid::SchedulePreemption(GridNodeId id) {
  GridNode& node = *nodes_[id];
  Site& site = sites_[node.site_index_];
  const double lifetime = site.rng.Exponential(site.config.node_mtbf_s);
  node.lifetime_event_ = sim_.ScheduleAfter(
      FromSeconds(lifetime),
      [this, id] { Preempt(id, ZombieMode::kSiteDefault); });
}

void Grid::Preempt(GridNodeId id, ZombieMode mode) {
  GridNode& node = *nodes_[id];
  if (node.state_ == NodeState::kDead || node.state_ == NodeState::kZombie) {
    return;
  }
  sim_.Cancel(node.lifetime_event_);
  Site& site = sites_[node.site_index_];
  const bool was_running = node.state_ == NodeState::kRunning;

  --site.active;
  --active_leases_;
  if (was_running) {
    --running_;
    ins_.node_preempted.Add();
    ins_.nodes_running.Set(running_);
    sim_.obs().tracer().EmitCounter("grid", "nodes.running", sim_.now(),
                                    running_);
  }

  const bool zombie =
      was_running && mode != ZombieMode::kNever &&
      (mode == ZombieMode::kAlways || rng_.Chance(config_.zombie_probability));
  if (zombie) {
    // The site killed the wrapper and deleted its working directory, but
    // the double-forked daemons escaped the process tree (§IV.D.1).
    node.state_ = NodeState::kZombie;
    ++zombies_;
    ins_.node_zombied.Add();
    ins_.nodes_zombie.Set(zombies_);
    sim_.obs().tracer().EmitInstant("grid", "node.zombie", sim_.now(), id);
    node.disk().set_writable(false);
    HOG_LOG(kInfo, sim_.now(), "grid")
        << "zombie preemption: " << node.hostname();
    if (on_node_zombie_) on_node_zombie_(node);
  } else {
    node.state_ = NodeState::kDead;
    net_.FailFlowsAtNode(node.net_node());
    node.disk().CancelAll();
    if (was_running) {
      sim_.obs().tracer().EmitInstant("grid", "node.preempt", sim_.now(), id);
      HOG_LOG(kInfo, sim_.now(), "grid")
          << "preempted: " << node.hostname() << " (running=" << running_
          << ")";
      if (on_node_preempt_) on_node_preempt_(node);
    }
  }
  Reconcile();
}

void Grid::KillZombie(GridNodeId id) {
  GridNode& node = *nodes_[id];
  if (node.state_ != NodeState::kZombie) return;
  node.state_ = NodeState::kDead;
  --zombies_;
  ins_.zombie_killed.Add();
  ins_.nodes_zombie.Set(zombies_);
  net_.FailFlowsAtNode(node.net_node());
  node.disk().CancelAll();
}

void Grid::ArmBurst(std::size_t site_index) {
  Site& site = sites_[site_index];
  const double wait = site.rng.Exponential(site.config.burst_interval_s);
  site.burst_event = sim_.ScheduleAfter(FromSeconds(wait), [this, site_index] {
    Site& s = sites_[site_index];
    // A higher-priority user grabbed a batch of slots: evict a random
    // fraction of this site's running glideins simultaneously.
    double fraction = s.rng.Exponential(s.config.burst_fraction);
    fraction = std::min(fraction, 1.0);
    PreemptSiteFraction(site_index, fraction);
    ArmBurst(site_index);
  });
}

int Grid::PreemptSiteFraction(std::size_t site_index, double fraction) {
  assert(site_index < sites_.size());
  if (!(fraction > 0.0)) return 0;  // also rejects NaN
  fraction = std::min(fraction, 1.0);
  std::vector<GridNodeId> victims;
  for (const auto& n : nodes_) {
    if (n->state_ == NodeState::kRunning && n->site_index_ == site_index) {
      victims.push_back(n->id());
    }
  }
  if (victims.empty()) return 0;
  // Round to nearest, but a positive fraction always claims at least one
  // node: a burst at a 4-node site with fraction 0.1 is an eviction, not a
  // no-op (the old llround-only behavior made small sites burst-immune).
  std::size_t count =
      fraction >= 1.0
          ? victims.size()
          : static_cast<std::size_t>(std::llround(
                fraction * static_cast<double>(victims.size())));
  count = std::clamp<std::size_t>(count, 1, victims.size());
  // Uniform sample without replacement (partial Fisher-Yates).
  Site& site = sites_[site_index];
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(site.rng.UniformInt(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(victims.size()) - 1));
    std::swap(victims[i], victims[j]);
    Preempt(victims[i], ZombieMode::kSiteDefault);
  }
  ins_.site_burst.Add();
  sim_.obs().tracer().EmitInstant("grid", "site.burst", sim_.now(),
                                  site_index);
  HOG_LOG(kInfo, sim_.now(), "grid")
      << "burst at " << site.config.resource_name << ": " << count
      << " nodes preempted";
  return static_cast<int>(count);
}

int Grid::PreemptNodes(std::size_t site_index, int count, ZombieMode mode) {
  assert(site_index < sites_.size());
  // Oldest leases first: node ids are lease-ordered, so a forward scan is
  // both deterministic and RNG-free. Victims are snapshotted before any
  // Preempt because Reconcile may grow nodes_ mid-loop.
  std::vector<GridNodeId> victims;
  for (const auto& n : nodes_) {
    if (static_cast<int>(victims.size()) >= count) break;
    if (n->state_ == NodeState::kRunning && n->site_index_ == site_index) {
      victims.push_back(n->id());
    }
  }
  for (GridNodeId id : victims) Preempt(id, mode);
  return static_cast<int>(victims.size());
}

void Grid::FreezeAcquisition(std::size_t site_index, SimDuration duration) {
  assert(site_index < sites_.size());
  Site& site = sites_[site_index];
  site.frozen_until = std::max(site.frozen_until, sim_.now() + duration);
  // Pending demand resumes when the freeze lifts; queued glideins defer
  // themselves in StartGlidein.
  sim_.ScheduleAt(site.frozen_until, [this] { Reconcile(); });
  HOG_LOG(kInfo, sim_.now(), "grid")
      << "acquisition frozen at " << site.config.resource_name << " for "
      << ToSeconds(duration) << "s";
}

void Grid::SetAcquisitionDelayFactor(std::size_t site_index, double factor) {
  assert(site_index < sites_.size());
  assert(factor > 0.0);
  sites_[site_index].queue_delay_factor = factor;
}

std::vector<GridNodeId> Grid::RunningNodeIds() const {
  std::vector<GridNodeId> out;
  for (const auto& n : nodes_) {
    if (n->state_ == NodeState::kRunning) out.push_back(n->id());
  }
  return out;
}

bool Grid::SetNodeComputeScale(GridNodeId id, double factor) {
  GridNode* n = node(id);
  if (n == nullptr || !n->running() || !on_node_slow_) return false;
  on_node_slow_(*n, factor);
  return true;
}

bool Grid::SetNodeHeartbeatJitter(GridNodeId id, SimDuration jitter) {
  GridNode* n = node(id);
  if (n == nullptr || !n->running() || !on_node_jitter_) return false;
  on_node_jitter_(*n, jitter);
  return true;
}

bool Grid::StallNodeDisk(GridNodeId id, SimDuration duration) {
  GridNode* n = node(id);
  if (n == nullptr || !n->processes_alive()) return false;
  n->disk().Stall(duration);
  return true;
}

}  // namespace hogsim::grid
