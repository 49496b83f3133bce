// Fair scheduler: per-user pools with weighted shares (after Hadoop's
// fair scheduler / Zaharia et al., the lineage the HOG workload derives
// from). Jobs route to the pool named by JobSpec::user ("" = "default").
//
// Task selection orders pools by deficit — running-attempt usage divided
// by pool weight, ascending, ties on pool name — then runs the legacy
// FIFO pick within the chosen pool, so the most under-served pool always
// bids first but no slot ever idles while any pool has work (work
// conservation).
//
// Starvation preemption: a periodic tick computes each pool's weighted
// min-share of the map slots (capped by its demand). A pool continuously
// below that share for `preempt_timeout_s` while holding runnable maps
// gets one slot back: the newest map attempt of the most over-share pool
// is killed and requeued without charging a task failure. Map attempts
// only — killing a reduce forfeits its shuffle.
//
// Parameters: "fair:weights=alice:2;bob:1;preempt_timeout_s=120;tick_s=30"
// (unlisted users weigh 1; preemption disabled with preempt_timeout_s=0).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/sched/policy.h"

namespace hogsim::sched {

class FairPolicy : public SchedulerPolicy {
 public:
  /// Reads its keys from `spec` (see above); the registry finishes it.
  explicit FairPolicy(Spec& spec);

  const char* name() const override { return "fair"; }

  Assignment PickMap(mr::TrackerId tracker) override;
  Assignment PickReduce(mr::TrackerId tracker) override;

  void OnJobSubmitted(mr::JobId job) override;

 protected:
  void OnAttach() override;

 private:
  struct Pool {
    double weight = 1.0;
    std::vector<mr::JobId> jobs;  // submission order; pruned lazily
    /// When this pool's continuous starvation began (-1 = not starved).
    SimTime starved_since = -1;
  };

  /// Running map (or reduce) attempts across the pool's jobs, pruning
  /// terminal jobs on the way.
  int PoolUsage(Pool& pool, bool maps);
  /// Does the pool hold a task still needing an attempt (runnable demand)?
  int PoolDemand(Pool& pool, bool maps);
  Assignment PickFrom(Pool& pool, mr::TrackerId tracker, bool maps);
  void PreemptionTick();

  // std::map: deterministic name-ordered iteration.
  std::map<std::string, Pool> pools_;
  std::map<std::string, double> weights_;  // from params; default 1.0
  SimDuration preempt_timeout_ = 2 * kMinute;
  SimDuration tick_ = 30 * kSecond;
  sim::PeriodicTimer timer_;
};

}  // namespace hogsim::sched
