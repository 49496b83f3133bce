// ATLAS-style failure-aware scheduling (after arXiv:1511.01446): learn
// per-tracker and per-site task-failure EWMAs from the live attempt
// stream — chaos-driven preemptions, zombie failures, lost trackers —
// and use them to (a) steer work so a risky node holds the least
// re-executable state and (b) buy insurance copies of attempts running
// on risky nodes.
//
// Risk model. Each tracker keeps an EWMA r_node, its site (rack string)
// an EWMA r_site. A failed attempt bumps the node toward 1 by `alpha`
// (site by alpha/2); a success decays both by the same factors; a lost
// tracker — the grid-preemption signal — jumps its node EWMA by
// `loss_alpha`. Combined risk = 1 - (1-r_node)(1-r_site); a tracker is
// "risky" at or above `risk_threshold`.
//
// Behavior, relative to FIFO:
//  * Picks stay FIFO across jobs and locality-tiered within a job, but on
//    a risky tracker ties within the best tier break toward the smallest
//    input (least work lost when the node dies) instead of the lowest
//    index. Risky trackers still get work — steering never idles a slot.
//  * Speculation adds a risk trigger: a map whose lone attempt runs on a
//    risky tracker is re-executed on a safe offering tracker even before
//    it looks slow. Classic slowness speculation is unchanged.
//
// Parameters: "atlas:alpha=0.3;loss_alpha=0.7;risk_threshold=0.5".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/sched/policy.h"

namespace hogsim::sched {

class AtlasPolicy : public SchedulerPolicy {
 public:
  /// Reads its keys from `spec` (see above); the registry finishes it.
  explicit AtlasPolicy(Spec& spec);

  const char* name() const override { return "atlas"; }

  Assignment PickMap(mr::TrackerId tracker) override;
  Assignment PickReduce(mr::TrackerId tracker) override;

  void OnJobSubmitted(mr::JobId job) override { queue_.push_back(job); }
  void OnTrackerLost(mr::TrackerId tracker) override;
  void OnAttemptEvent(const mr::JobTracker::AttemptEvent& event) override;

  /// Combined node+site risk of `tracker`, in [0, 1).
  double Risk(mr::TrackerId tracker) const;
  bool Risky(mr::TrackerId tracker) const {
    return Risk(tracker) >= risk_threshold_;
  }

 private:
  /// Risk-aware per-job map pick: on a safe tracker, exactly the legacy
  /// pick plus risk speculation; on a risky one, smallest-input steering.
  int PickMapIn(mr::JobInfo& job, mr::TrackerId tracker, int* locality,
                bool* speculative);
  /// Insurance copy of a map whose lone attempt runs on a risky tracker,
  /// for a safe offerer. Returns the task index or -1.
  int PickRiskClone(mr::JobInfo& job, mr::TrackerId tracker, int* locality,
                    bool* speculative);

  double& NodeRisk(mr::TrackerId tracker);
  double SiteRisk(const std::string& rack) const;

  std::vector<mr::JobId> queue_;  // submission order; pruned lazily
  std::vector<double> node_risk_;
  std::map<std::string, double> site_risk_;
  double alpha_ = 0.3;
  double loss_alpha_ = 0.7;
  double risk_threshold_ = 0.5;
};

}  // namespace hogsim::sched
