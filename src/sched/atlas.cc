#include "src/sched/atlas.h"

#include <utility>

namespace hogsim::sched {

AtlasPolicy::AtlasPolicy(Spec& spec) {
  for (const auto& [key, value] :
       {std::pair{"alpha", &alpha_}, std::pair{"loss_alpha", &loss_alpha_},
        std::pair{"risk_threshold", &risk_threshold_}}) {
    *value = spec.Number(key, *value);
    if (*value <= 0 || *value > 1) spec.Fail({key, " must be in (0, 1]"});
  }
}

double& AtlasPolicy::NodeRisk(mr::TrackerId tracker) {
  if (node_risk_.size() <= tracker) node_risk_.resize(tracker + 1, 0.0);
  return node_risk_[tracker];
}

double AtlasPolicy::SiteRisk(const std::string& rack) const {
  const auto it = site_risk_.find(rack);
  return it == site_risk_.end() ? 0.0 : it->second;
}

double AtlasPolicy::Risk(mr::TrackerId tracker) const {
  const double node =
      tracker < node_risk_.size() ? node_risk_[tracker] : 0.0;
  const double site = SiteRisk(view_->tracker(tracker).rack);
  return 1.0 - (1.0 - node) * (1.0 - site);
}

void AtlasPolicy::OnTrackerLost(mr::TrackerId tracker) {
  double& node = NodeRisk(tracker);
  node += loss_alpha_ * (1.0 - node);
  double& site = site_risk_[view_->tracker(tracker).rack];
  site += (loss_alpha_ / 2) * (1.0 - site);
}

void AtlasPolicy::OnAttemptEvent(const mr::JobTracker::AttemptEvent& event) {
  using Kind = mr::JobTracker::AttemptEvent::Kind;
  if (event.tracker == mr::kInvalidTracker) return;
  double& node = NodeRisk(event.tracker);
  double& site = site_risk_[view_->tracker(event.tracker).rack];
  if (event.kind == Kind::kFailed) {
    node += alpha_ * (1.0 - node);
    site += (alpha_ / 2) * (1.0 - site);
  } else if (event.kind == Kind::kSucceeded) {
    node *= 1.0 - alpha_;
    site *= 1.0 - alpha_ / 2;
  }
}

int AtlasPolicy::PickRiskClone(mr::JobInfo& job, mr::TrackerId tracker,
                               int* locality, bool* speculative) {
  if (job.blacklist.contains(tracker)) return -1;
  if (job.running_map_attempts == 0 ||
      job.maps_completed >= static_cast<int>(job.maps.size())) {
    return -1;
  }
  for (mr::TaskInfo& task : job.maps) {
    if (task.complete || task.active_attempts.size() != 1) continue;
    const mr::TrackerId holder =
        view_->AttemptTracker(task.active_attempts.front());
    if (holder != mr::kInvalidTracker && holder != tracker && Risky(holder)) {
      *locality = 2;
      *speculative = true;
      return task.index;
    }
  }
  return -1;
}

int AtlasPolicy::PickMapIn(mr::JobInfo& job, mr::TrackerId tracker,
                           int* locality, bool* speculative) {
  if (!Risky(tracker)) {
    // A safe tracker picks exactly like FIFO (same pruning, same tier-0
    // early break, same classic speculation) — with nothing risky in
    // sight, atlas is byte-identical to fifo. The one addition: insure a
    // map whose lone attempt runs on a risky tracker by cloning it onto
    // this safe offerer before it ever looks slow.
    const int task = view_->PickMapTask(job, tracker, locality, speculative);
    if (task >= 0) return task;
    return PickRiskClone(job, tracker, locality, speculative);
  }
  if (job.blacklist.contains(tracker)) return -1;
  // Risky tracker: same pending scan, but ties within the best locality
  // tier break toward the smallest input (least work lost when the node
  // dies) instead of the lowest index — and no tier-0 early break, since
  // a later node-local task may be smaller.
  int best = -1;
  int best_tier = 3;
  Bytes best_size = 0;
  for (std::size_t i = 0; i < job.pending_maps.size();) {
    const int index = job.pending_maps[i];
    mr::TaskInfo& task = job.maps[index];
    if (!view_->TaskNeedsAttempt(job, task)) {
      job.pending_maps[i] = job.pending_maps.back();
      job.pending_maps.pop_back();
      continue;
    }
    const int tier = view_->LocalityTier(task, tracker);
    bool better = tier < best_tier;
    if (!better && tier == best_tier && best >= 0) {
      better = task.input_size < best_size ||
               (task.input_size == best_size && index < best);
    }
    if (better) {
      best = index;
      best_tier = tier;
      best_size = task.input_size;
    }
    ++i;
  }
  if (best >= 0) {
    *locality = best_tier;
    *speculative = false;
    return best;
  }
  // Classic slowness speculation still applies on a risky offerer (a
  // backup anywhere beats no backup); risk clones never land here —
  // moving work onto a risky node is what steering avoids.
  if (job.running_map_attempts > 0 &&
      job.maps_completed < static_cast<int>(job.maps.size()) &&
      job.map_durations.count() > 0) {
    for (mr::TaskInfo& task : job.maps) {
      if (view_->CanSpeculate(job, task, tracker)) {
        *locality = 2;
        *speculative = true;
        return task.index;
      }
    }
  }
  return -1;
}

Assignment AtlasPolicy::PickMap(mr::TrackerId tracker) {
  for (std::size_t i = 0; i < queue_.size();) {
    mr::JobInfo& job = view_->job(queue_[i]);
    if (job.state != mr::JobState::kRunning) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    int locality = 2;
    bool speculative = false;
    const int task = PickMapIn(job, tracker, &locality, &speculative);
    if (task >= 0 && !speculative &&
        !view_->LocalityWaitPermits(job, locality)) {
      ++i;
      continue;
    }
    if (task >= 0) return {job.id, task, speculative, locality};
    ++i;
  }
  return {};
}

Assignment AtlasPolicy::PickReduce(mr::TrackerId tracker) {
  // Reduces shuffle from everywhere; risk steering buys little, so keep
  // the legacy pick (lowest pending index + slowness speculation).
  for (std::size_t i = 0; i < queue_.size();) {
    mr::JobInfo& job = view_->job(queue_[i]);
    if (job.state != mr::JobState::kRunning) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    bool speculative = false;
    const int task = view_->PickReduceTask(job, tracker, &speculative);
    if (task >= 0) return {job.id, task, speculative, 2};
    ++i;
  }
  return {};
}

}  // namespace hogsim::sched
