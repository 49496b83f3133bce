// Capacity scheduler: named queues with guaranteed capacities and elastic
// hard caps (after Hadoop's CapacityScheduler). Jobs route to the queue
// named by JobSpec::queue; "" or an undeclared name routes to the first
// declared queue.
//
// Task selection orders queues by relative saturation — running-attempt
// usage divided by guaranteed slot share, ascending, ties on queue name —
// so the queue furthest below its guarantee bids first. A queue whose
// usage has reached its elastic cap (max fraction of cluster slots, per
// task type) is skipped. Elasticity is emergent: a queue may run past its
// guaranteed capacity up to its cap whenever the queues ahead of it have
// no runnable work.
//
// Parameters: "capacity:queues=prod:0.6:1.0;adhoc:0.4:0.8" — each entry
// is name:capacity:max with capacities normalized to sum to 1 and max
// clamped to [capacity, 1]. Default: a single "default:1:1" queue.
#pragma once

#include <string>
#include <vector>

#include "src/sched/policy.h"

namespace hogsim::sched {

class CapacityPolicy : public SchedulerPolicy {
 public:
  /// Reads its keys from `spec` (see above); the registry finishes it.
  explicit CapacityPolicy(Spec& spec);

  const char* name() const override { return "capacity"; }

  Assignment PickMap(mr::TrackerId tracker) override;
  Assignment PickReduce(mr::TrackerId tracker) override;

  void OnJobSubmitted(mr::JobId job) override;

 private:
  struct Queue {
    std::string name;
    double capacity = 1.0;  // guaranteed fraction of cluster slots
    double max = 1.0;       // elastic hard cap
    std::vector<mr::JobId> jobs;  // submission order; pruned lazily
  };

  Queue& RouteQueue(const std::string& name);
  int QueueUsage(Queue& queue, bool maps);
  Assignment Pick(mr::TrackerId tracker, bool maps);

  std::vector<Queue> queues_;  // declaration order
};

}  // namespace hogsim::sched
