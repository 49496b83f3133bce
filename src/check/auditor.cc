#include "src/check/auditor.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/grid/grid.h"
#include "src/hdfs/datanode.h"
#include "src/hdfs/namenode.h"
#include "src/hdfs/repl_controller.h"
#include "src/hdfs/topology.h"
#include "src/health/liveness.h"
#include "src/mapreduce/jobtracker.h"
#include "src/util/log.h"

namespace hogsim::check {

namespace {

std::string Describe(const Violation& v) {
  return std::string(v.invariant) + " at t=" + std::to_string(v.at) + "us: " +
         v.detail;
}

}  // namespace

AuditError::AuditError(const Violation& v)
    : std::runtime_error("invariant violated: " + Describe(v)) {}

Auditor::Auditor(sim::Simulation& sim, hdfs::Namenode* namenode,
                 mr::JobTracker* jobtracker, grid::Grid* grid, Options options)
    : sim_(sim),
      nn_(namenode),
      jt_(jobtracker),
      grid_(grid),
      options_(options),
      ins_(sim.obs().metrics()) {}

Auditor::Auditor(sim::Simulation& sim, hdfs::Namenode* namenode,
                 mr::JobTracker* jobtracker, grid::Grid* grid)
    : Auditor(sim, namenode, jobtracker, grid, Options{}) {}

void Auditor::Start() {
  if (options_.period <= 0) return;
  timer_.Start(sim_, options_.period, [this] { AuditNow(); });
}

std::size_t Auditor::AuditNow() {
  pass_violations_ = 0;
  ins_.audits.Add();
  if (nn_ != nullptr) AuditHdfs();
  if (nn_ != nullptr && repl_ != nullptr) AuditReplController();
  if (jt_ != nullptr) AuditMapReduce();
  if (grid_ != nullptr) AuditGrid();
  return pass_violations_;
}

void Auditor::Report(const char* invariant, std::string detail) {
  Violation v{invariant, std::move(detail), sim_.now()};
  ++pass_violations_;
  ins_.violations.Add();
  sim_.obs().tracer().EmitInstant("check", invariant, sim_.now());
  HOG_LOG(kError, sim_.now(), "check") << Describe(v);
  if (records_.size() < kMaxRecords) records_.push_back(v);
  if (options_.fail_fast) throw AuditError(v);
}

// ---- HDFS ------------------------------------------------------------------

void Auditor::AuditHdfs() {
  const hdfs::Namenode& nn = *nn_;

  // Ground-truth tallies over the transfer ledger, compared below against
  // the per-block and per-datanode stream counters.
  std::unordered_map<hdfs::BlockId, int> transfers_per_block;
  std::unordered_map<hdfs::DatanodeId, int> in_per_dn;
  std::unordered_map<hdfs::DatanodeId, int> out_per_dn;
  for (const auto& [tid, t] : nn.transfers_) {
    ++transfers_per_block[t.block];
    ++in_per_dn[t.dst];
    ++out_per_dn[t.src];
  }

  std::size_t expected_needed = 0;
  for (hdfs::BlockId id = 0; id < nn.blocks_.size(); ++id) {
    const auto& info = nn.blocks_[id];
    if (!info.live) continue;
    // Holder sets and datanode inventories are two views of the same
    // relation; they must agree exactly.
    for (hdfs::DatanodeId dn : info.holders) {
      const auto& entry = nn.datanodes_[dn];
      if (!entry.blocks.contains(id)) {
        Report("hdfs.holders_bidir",
               "block " + std::to_string(id) + " lists holder " +
                   entry.hostname + " which does not list the block back");
      }
      // Dead datanodes surrender their blocks in DeclareDead; only
      // believed-alive entries (which includes zombies whose probe has not
      // fired yet) may appear as holders.
      if (!nn.DatanodeAlive(dn)) {
        Report("hdfs.holder_alive",
               "block " + std::to_string(id) + " held by dead datanode " +
                   entry.hostname);
      }
    }

    const int in_flight = transfers_per_block.contains(id)
                              ? transfers_per_block.at(id)
                              : 0;
    if (info.pending_replications != in_flight) {
      Report("hdfs.pending_matches_transfers",
             "block " + std::to_string(id) + " pending_replications=" +
                 std::to_string(info.pending_replications) + " but " +
                 std::to_string(in_flight) + " transfers in flight");
    }
    const auto targets = nn.pending_targets_.equal_range(id);
    const int reserved_targets =
        static_cast<int>(std::distance(targets.first, targets.second));
    if (reserved_targets != in_flight) {
      Report("hdfs.pending_targets",
             "block " + std::to_string(id) + " has " +
                 std::to_string(reserved_targets) +
                 " pending targets but " + std::to_string(in_flight) +
                 " transfers in flight");
    }

    if (!info.committed) continue;
    // The under-replication queue must contain exactly the committed
    // blocks short of their target, at the level their live-replica count
    // dictates (the membership predicate of Namenode::UpdateNeeded).
    const int replicas = static_cast<int>(info.holders.size());
    std::vector<std::string_view> racks;
    std::vector<std::string_view> sites;
    for (hdfs::DatanodeId dn : info.holders) {
      const std::string_view rack = nn.datanodes_[dn].rack;
      if (std::find(racks.begin(), racks.end(), rack) == racks.end()) {
        racks.push_back(rack);
      }
      const std::string_view site = hdfs::SiteOfRack(rack);
      if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
        sites.push_back(site);
      }
    }
    const bool should_need =
        replicas + info.pending_replications < info.replication &&
        !info.holders.empty();
    if (should_need) ++expected_needed;
    if (nn.needed_.contains(id) != should_need) {
      Report("hdfs.needed_membership",
             "block " + std::to_string(id) + " (live=" +
                 std::to_string(replicas) + " pending=" +
                 std::to_string(info.pending_replications) + " target=" +
                 std::to_string(info.replication) + ") " +
                 (should_need ? "missing from" : "stale in") +
                 " the replication queue");
    } else if (should_need) {
      // Distinct-site AND distinct-rack escalation, in lockstep with
      // Namenode::UpdateNeeded (racks refine sites; equal under star).
      const int want = hdfs::ReplicationQueue::LevelFor(
          replicas, info.replication, static_cast<int>(sites.size()),
          static_cast<int>(racks.size()));
      if (nn.needed_.level_of(id) != want) {
        Report("hdfs.needed_level",
               "block " + std::to_string(id) + " queued at level " +
                   std::to_string(nn.needed_.level_of(id)) + ", expected " +
                   std::to_string(want));
      }
      // The within-level order is keyed by deficit; a stale deficit means
      // a block that lost another replica kept its old queue position.
      if (nn.needed_.deficit_of(id) != info.replication - replicas) {
        Report("hdfs.needed_deficit",
               "block " + std::to_string(id) + " queued with deficit " +
                   std::to_string(nn.needed_.deficit_of(id)) +
                   ", expected " + std::to_string(info.replication - replicas));
      }
    }
  }
  if (nn.needed_.size() != expected_needed) {
    Report("hdfs.needed_size",
           "replication queue holds " + std::to_string(nn.needed_.size()) +
               " blocks, expected " + std::to_string(expected_needed));
  }

  for (std::size_t dn = 0; dn < nn.datanodes_.size(); ++dn) {
    const auto& entry = nn.datanodes_[dn];
    for (hdfs::BlockId b : entry.blocks) {
      const auto* info = nn.FindBlock(b);
      if (info == nullptr ||
          !info->holders.contains(static_cast<hdfs::DatanodeId>(dn))) {
        Report("hdfs.holders_bidir",
               "datanode " + entry.hostname + " lists block " +
                   std::to_string(b) + " it does not hold");
      }
    }
    const int want_in = in_per_dn.contains(dn) ? in_per_dn.at(dn) : 0;
    const int want_out = out_per_dn.contains(dn) ? out_per_dn.at(dn) : 0;
    if (entry.repl_in != want_in || entry.repl_out != want_out) {
      Report("hdfs.stream_accounting",
             "datanode " + entry.hostname + " repl_in/out=" +
                 std::to_string(entry.repl_in) + "/" +
                 std::to_string(entry.repl_out) + " but ledger says " +
                 std::to_string(want_in) + "/" + std::to_string(want_out));
    }
    // The disk must hold at least the bytes the namenode believes are
    // committed there (it may hold more: in-flight pipeline and transfer
    // reservations release only on completion or abort).
    if (entry.daemon != nullptr) {
      Bytes believed = 0;
      for (hdfs::BlockId b : entry.blocks) {
        const auto* info = nn.FindBlock(b);
        if (info != nullptr) believed += info->size;
      }
      if (believed > entry.daemon->disk().used()) {
        Report("hdfs.disk_accounting",
               "datanode " + entry.hostname + " disk used " +
                   std::to_string(entry.daemon->disk().used()) +
                   " bytes < " + std::to_string(believed) +
                   " bytes of committed replicas");
      }
    }
  }
  AuditLiveness(nn.liveness_);
}

// ---- Adaptive replication ---------------------------------------------------

void Auditor::AuditReplController() {
  const hdfs::Namenode& nn = *nn_;
  const hdfs::ReplController& ctl = *repl_;
  const int floor = ctl.config().min_replication;
  const int cap = ctl.config().max_replication;

  for (hdfs::BlockId id = 0; id < nn.blocks_.size(); ++id) {
    const auto& info = nn.blocks_[id];
    if (!info.live || !info.committed) continue;
    // Files deliberately created below the floor are outside the
    // controller's contract and must stay untouched.
    const int file_rep = nn.files_[info.file].replication;
    if (file_rep < floor) {
      if (info.replication != file_rep) {
        Report("hdfs.repl_unmanaged",
               "block " + std::to_string(id) + " of a replication-" +
                   std::to_string(file_rep) + " file retargeted to " +
                   std::to_string(info.replication) +
                   " despite being below the controller floor");
      }
      continue;
    }
    // The controller clamps every managed target into [floor, cap]: a
    // target below the floor would let safe-looking trims erode a block
    // past the survivability minimum.
    if (info.replication < floor) {
      Report("hdfs.repl_floor",
             "block " + std::to_string(id) + " target " +
                 std::to_string(info.replication) +
                 " below the controller floor " + std::to_string(floor));
    }
    if (info.replication > std::max(cap, file_rep)) {
      Report("hdfs.repl_cap",
             "block " + std::to_string(id) + " target " +
                 std::to_string(info.replication) +
                 " above the controller cap " + std::to_string(cap));
    }
  }
  // Every trim is guard-checked before acting; a nonzero count means a
  // removal path reached the guards in a state they had to veto.
  if (ctl.unsafe_trims() != 0) {
    Report("hdfs.repl_safe_trim",
           "controller counted " + std::to_string(ctl.unsafe_trims()) +
               " vetoed unsafe trims");
  }
}

// ---- MapReduce -------------------------------------------------------------

void Auditor::AuditMapReduce() {
  const mr::JobTracker& jt = *jt_;

  // Attempt ledger vs. tracker entries vs. task attempt lists: one launch
  // appears in exactly these three places until FinishAttempt retires it.
  for (const auto& [id, record] : jt.attempts_) {
    const auto& entry = jt.trackers_[record.tracker];
    if (!entry.attempts.contains(id)) {
      Report("mr.attempt_ledger",
             "attempt " + std::to_string(id) + " not in tracker " +
                 entry.hostname + "'s attempt set");
    }
    const auto& job = jt.jobs_[record.job];
    const auto& task = record.type == mr::TaskType::kMap
                           ? job.maps[record.task_index]
                           : job.reduces[record.task_index];
    if (std::find(task.active_attempts.begin(), task.active_attempts.end(),
                  id) == task.active_attempts.end()) {
      Report("mr.attempt_ledger",
             "attempt " + std::to_string(id) + " missing from its task's " +
                 "active list (job " + std::to_string(record.job) + ")");
    }
  }

  for (std::size_t t = 0; t < jt.trackers_.size(); ++t) {
    const auto& entry = jt.trackers_[t];
    int maps = 0;
    int reduces = 0;
    for (mr::AttemptId a : entry.attempts) {
      auto it = jt.attempts_.find(a);
      if (it == jt.attempts_.end() ||
          it->second.tracker != static_cast<mr::TrackerId>(t)) {
        Report("mr.attempt_ledger",
               "tracker " + entry.hostname + " lists attempt " +
                   std::to_string(a) + " the ledger does not assign to it");
        continue;
      }
      ++(it->second.type == mr::TaskType::kMap ? maps : reduces);
    }
    if (entry.used_map_slots != maps || entry.used_reduce_slots != reduces) {
      Report("mr.slot_accounting",
             "tracker " + entry.hostname + " slots " +
                 std::to_string(entry.used_map_slots) + "m/" +
                 std::to_string(entry.used_reduce_slots) + "r but runs " +
                 std::to_string(maps) + "m/" + std::to_string(reduces) + "r");
    }
  }
  AuditLiveness(jt.liveness_);

  int running = 0;
  int blacklisted = 0;
  for (const auto& job : jt.jobs_) {
    const bool job_running = job.state == mr::JobState::kRunning;
    if (job_running) {
      ++running;
      blacklisted += static_cast<int>(job.blacklist.size());
      // DeclareLost forgives the lost tracker, so a blacklist may only
      // name alive trackers — a dead entry means the mr.blacklist.active
      // gauge is counting a process that no longer exists.
      for (mr::TrackerId t : job.blacklist) {
        if (!jt.TrackerAlive(t)) {
          Report("mr.blacklist_live",
                 "job " + std::to_string(job.id) + " blacklists dead " +
                     "tracker " + jt.trackers_[t].hostname);
        }
      }
    }
    const auto audit_tasks = [&](const std::vector<mr::TaskInfo>& tasks,
                                 const std::vector<int>& pending,
                                 int running_counter, const char* kind) {
      int active = 0;
      for (const auto& task : tasks) {
        active += static_cast<int>(task.active_attempts.size());
        if (task.complete && !task.active_attempts.empty()) {
          Report("mr.complete_still_running",
                 "job " + std::to_string(job.id) + " " + kind + " " +
                     std::to_string(task.index) + " is complete with " +
                     std::to_string(task.active_attempts.size()) +
                     " active attempts");
        }
        // Liveness: a schedulable task with nothing running must be
        // visible to the scheduler, or it is silently starved.
        if (job_running && task.active_attempts.empty() &&
            jt.TaskNeedsAttempt(job, task) &&
            std::find(pending.begin(), pending.end(), task.index) ==
                pending.end()) {
          Report("mr.scheduler_liveness",
                 "job " + std::to_string(job.id) + " " + kind + " " +
                     std::to_string(task.index) +
                     " needs an attempt but is not pending");
        }
      }
      if (active != running_counter) {
        Report("mr.running_attempts",
               "job " + std::to_string(job.id) + " counts " +
                   std::to_string(running_counter) + " running " + kind +
                   " attempts but tasks list " + std::to_string(active));
      }
      // Pending lists are pruned lazily, so stale (saturated/complete)
      // entries are legal — but a duplicate entry means a task was
      // double-counted as runnable and could win two slots at once, and an
      // out-of-range index would fault the scheduler's next scan.
      std::vector<int> seen(tasks.size(), 0);
      for (int index : pending) {
        if (index < 0 || static_cast<std::size_t>(index) >= tasks.size()) {
          Report("mr.pending_valid",
                 "job " + std::to_string(job.id) + " pending " + kind + " " +
                     std::to_string(index) + " is out of range");
          continue;
        }
        if (++seen[static_cast<std::size_t>(index)] > 1) {
          Report("mr.pending_valid",
                 "job " + std::to_string(job.id) + " " + kind + " " +
                     std::to_string(index) +
                     " appears twice in the pending list");
        }
      }
    };
    audit_tasks(job.maps, job.pending_maps, job.running_map_attempts, "map");
    audit_tasks(job.reduces, job.pending_reduces, job.running_reduce_attempts,
                "reduce");
  }
  if (running != jt.running_jobs_) {
    Report("mr.running_jobs",
           "running_jobs=" + std::to_string(jt.running_jobs_) + " but " +
               std::to_string(running) + " jobs are running");
  }
  if (blacklisted != jt.blacklist_active_) {
    Report("mr.blacklist_gauge",
           "blacklist_active=" + std::to_string(jt.blacklist_active_) +
               " but running jobs blacklist " + std::to_string(blacklisted) +
               " trackers");
  }
}

// ---- Liveness ----------------------------------------------------------------

void Auditor::AuditLiveness(const health::Liveness& liveness) {
  const std::string master = liveness.names_.live_gauge;
  std::vector<bool> armed(liveness.daemons_.size(), false);
  for (const auto& entry : liveness.heap_) armed[entry.id] = true;
  int alive = 0;
  for (health::DaemonId id = 0; id < liveness.daemons_.size(); ++id) {
    if (!liveness.daemons_[id].alive) continue;
    ++alive;
    // Only the heap entry gets a silent daemon declared; without one, a
    // daemon that stops heartbeating stays alive forever.
    if (!armed[id]) {
      Report("health.expiry_armed",
             master + ": alive daemon " + std::to_string(id) +
                 " has no expiry entry");
    }
  }
  if (alive != liveness.live_) {
    Report("health.live_count",
           master + ": live count " + std::to_string(liveness.live_) +
               " but " + std::to_string(alive) + " daemons are alive");
  }
  if (liveness.live_gauge_.value() != liveness.live_) {
    Report("health.live_gauge",
           master + " reads " +
               std::to_string(liveness.live_gauge_.value()) +
               " but the live count is " + std::to_string(liveness.live_));
  }
}

// ---- Grid ------------------------------------------------------------------

void Auditor::AuditGrid() {
  const grid::Grid& g = *grid_;

  std::vector<int> site_active(g.sites_.size(), 0);
  int leases = 0;
  int running = 0;
  int zombies = 0;
  for (const auto& node : g.nodes_) {
    switch (node->state()) {
      case grid::NodeState::kQueued:
      case grid::NodeState::kStarting:
        ++leases;
        ++site_active[node->site_index()];
        break;
      case grid::NodeState::kRunning:
        ++leases;
        ++site_active[node->site_index()];
        ++running;
        break;
      case grid::NodeState::kZombie:
        ++zombies;
        break;
      case grid::NodeState::kDead:
        break;
    }
  }
  if (running != g.running_) {
    Report("grid.census",
           "running_=" + std::to_string(g.running_) + " but " +
               std::to_string(running) + " nodes are running");
  }
  if (zombies != g.zombies_) {
    Report("grid.census",
           "zombies_=" + std::to_string(g.zombies_) + " but " +
               std::to_string(zombies) + " nodes are zombies");
  }
  if (leases != g.active_leases_) {
    Report("grid.census",
           "active_leases_=" + std::to_string(g.active_leases_) + " but " +
               std::to_string(leases) + " leases are active");
  }
  for (std::size_t s = 0; s < g.sites_.size(); ++s) {
    if (g.sites_[s].active != site_active[s]) {
      Report("grid.site_census",
             g.sites_[s].config.resource_name + " active=" +
                 std::to_string(g.sites_[s].active) + " but " +
                 std::to_string(site_active[s]) + " leases live there");
    }
    if (g.sites_[s].active > g.sites_[s].config.pool_size) {
      Report("grid.site_overflow",
             g.sites_[s].config.resource_name + " hosts " +
                 std::to_string(g.sites_[s].active) + " leases over its " +
                 std::to_string(g.sites_[s].config.pool_size) + "-slot pool");
    }
  }
}

}  // namespace hogsim::check
