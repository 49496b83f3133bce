// ClusterView: the shared scheduling machinery extracted from the legacy
// FIFO jobtracker. Pick semantics here are load-bearing — the FIFO policy
// composed from these helpers is pinned byte-identical to the
// pre-extraction scheduler by tests/sched_golden_test.cc.
#include <algorithm>
#include <cmath>

#include "src/sched/policy.h"

namespace hogsim::sched {

sim::Simulation& ClusterView::sim() { return jt_.sim_; }

SimTime ClusterView::now() const { return jt_.sim_.now(); }

mr::JobInfo& ClusterView::job(mr::JobId id) { return jt_.jobs_[id]; }

const mr::JobTracker::TrackerEntry& ClusterView::tracker(
    mr::TrackerId id) const {
  return jt_.trackers_[id];
}

int ClusterView::total_map_slots() const {
  int slots = 0;
  for (mr::TrackerId id = 0; id < jt_.trackers_.size(); ++id) {
    const mr::TaskTracker* daemon = jt_.trackers_[id].daemon;
    if (jt_.TrackerAlive(id) && daemon != nullptr) slots += daemon->map_slots();
  }
  return slots;
}

int ClusterView::total_reduce_slots() const {
  int slots = 0;
  for (mr::TrackerId id = 0; id < jt_.trackers_.size(); ++id) {
    const mr::TaskTracker* daemon = jt_.trackers_[id].daemon;
    if (jt_.TrackerAlive(id) && daemon != nullptr) {
      slots += daemon->reduce_slots();
    }
  }
  return slots;
}

bool ClusterView::TaskNeedsAttempt(const mr::JobInfo& job,
                                   const mr::TaskInfo& task) const {
  return jt_.TaskNeedsAttempt(job, task);
}

int ClusterView::LocalityTier(const mr::TaskInfo& task,
                              mr::TrackerId tracker) const {
  const auto& entry = jt_.trackers_[tracker];
  if (std::find(task.input_nodes.begin(), task.input_nodes.end(),
                entry.net_node) != task.input_nodes.end()) {
    return 0;
  }
  if (std::find(task.input_racks.begin(), task.input_racks.end(),
                entry.rack) != task.input_racks.end()) {
    return 1;
  }
  return 2;
}

bool ClusterView::CanSpeculate(const mr::JobInfo& job,
                               const mr::TaskInfo& task,
                               mr::TrackerId offerer) const {
  const mr::MrConfig& config = jt_.config_;
  if (!config.speculative_execution || task.complete ||
      task.active_attempts.size() != 1) {
    return false;
  }
  const RunningStats& durations = task.type == mr::TaskType::kMap
                                      ? job.map_durations
                                      : job.reduce_durations;
  if (durations.count() == 0) return false;
  const auto it = jt_.attempts_.find(task.active_attempts.front());
  if (it == jt_.attempts_.end()) return false;
  // A backup copy on the tracker already running the original shares its
  // failure domain — when that tracker dies between a heartbeat and the
  // assignment RPC, both copies vanish and speculation bought nothing.
  if (it->second.tracker == offerer) return false;
  const double runtime = ToSeconds(now() - it->second.started);
  return runtime > config.speculative_slowness * durations.mean();
}

bool ClusterView::LocalityWaitPermits(mr::JobInfo& job, int locality) {
  const mr::MrConfig& config = jt_.config_;
  if (config.locality_wait_node <= 0 || locality == 0) {
    job.locality_wait_start = -1;
    return true;
  }
  if (job.locality_wait_start < 0) job.locality_wait_start = now();
  const SimDuration waited = now() - job.locality_wait_start;
  const SimDuration needed =
      locality == 1 ? config.locality_wait_node
                    : config.locality_wait_node + config.locality_wait_rack;
  if (waited >= needed) {
    job.locality_wait_start = -1;  // concede, and start a fresh wait
    return true;
  }
  return false;
}

int ClusterView::PickMapTask(mr::JobInfo& job, mr::TrackerId tracker,
                             int* locality, bool* speculative) {
  if (job.blacklist.contains(tracker)) return -1;
  // Pass over pending maps, classifying by locality tier; stale entries
  // (completed / already saturated) are pruned on the way.
  int best = -1;
  int best_tier = 3;
  for (std::size_t i = 0; i < job.pending_maps.size();) {
    const int index = job.pending_maps[i];
    mr::TaskInfo& task = job.maps[index];
    if (!TaskNeedsAttempt(job, task)) {
      job.pending_maps[i] = job.pending_maps.back();
      job.pending_maps.pop_back();
      continue;
    }
    const int tier = LocalityTier(task, tracker);
    if (tier < best_tier || (tier == best_tier && best >= 0 && index < best)) {
      best = index;
      best_tier = tier;
    }
    if (best_tier == 0 && best >= 0) {
      // Node-local is optimal; stop early.
      break;
    }
    ++i;
  }
  if (best >= 0) {
    *locality = best_tier;
    *speculative = false;
    return best;
  }
  // No pending work: try speculation (a second copy of a slow task). The
  // guards keep this scan off the hot path for jobs past their map phase.
  if (job.running_map_attempts > 0 &&
      job.maps_completed < static_cast<int>(job.maps.size()) &&
      job.map_durations.count() > 0) {
    for (mr::TaskInfo& task : job.maps) {
      if (CanSpeculate(job, task, tracker)) {
        *locality = 2;
        *speculative = true;
        return task.index;
      }
    }
  }
  return -1;
}

int ClusterView::PickReduceTask(mr::JobInfo& job, mr::TrackerId tracker,
                                bool* speculative) {
  if (job.blacklist.contains(tracker)) return -1;
  const mr::MrConfig& config = jt_.config_;
  // Reduce slowstart: wait until a fraction of this job's maps completed.
  const int total_maps = static_cast<int>(job.maps.size());
  const int threshold =
      total_maps == 0 ? 0
                      : std::max(1, static_cast<int>(std::ceil(
                                        config.reduce_slowstart * total_maps)));
  if (job.maps_completed < threshold) return -1;

  int best = -1;
  for (std::size_t i = 0; i < job.pending_reduces.size();) {
    const int index = job.pending_reduces[i];
    if (!TaskNeedsAttempt(job, job.reduces[index])) {
      job.pending_reduces[i] = job.pending_reduces.back();
      job.pending_reduces.pop_back();
      continue;
    }
    if (best < 0 || index < best) best = index;
    ++i;
  }
  if (best >= 0) {
    *speculative = false;
    return best;
  }
  if (job.running_reduce_attempts > 0 &&
      job.reduces_completed < static_cast<int>(job.reduces.size()) &&
      job.reduce_durations.count() > 0) {
    for (mr::TaskInfo& task : job.reduces) {
      if (CanSpeculate(job, task, tracker)) {
        *speculative = true;
        return task.index;
      }
    }
  }
  return -1;
}

mr::TrackerId ClusterView::AttemptTracker(mr::AttemptId attempt) const {
  const auto it = jt_.attempts_.find(attempt);
  return it == jt_.attempts_.end() ? mr::kInvalidTracker : it->second.tracker;
}

void ClusterView::PreemptAttempt(mr::AttemptId attempt) {
  jt_.PreemptAttempt(attempt);
}

}  // namespace hogsim::sched
