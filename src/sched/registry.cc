// Policy registry: name[:params] -> SchedulerPolicy instance.
#include "src/sched/atlas.h"
#include "src/sched/capacity.h"
#include "src/sched/fair.h"
#include "src/sched/fifo.h"
#include "src/sched/policy.h"

namespace hogsim::sched {

std::unique_ptr<SchedulerPolicy> CreatePolicy(const std::string& text) {
  Spec spec(text);
  std::unique_ptr<SchedulerPolicy> policy;
  if (spec.name() == "fifo") {
    policy = std::make_unique<FifoPolicy>();
  } else if (spec.name() == "fair") {
    policy = std::make_unique<FairPolicy>(spec);
  } else if (spec.name() == "capacity") {
    policy = std::make_unique<CapacityPolicy>(spec);
  } else if (spec.name() == "atlas") {
    policy = std::make_unique<AtlasPolicy>(spec);
  } else {
    spec.FailUnknownName("scheduler", PolicyNames());
  }
  spec.Finish();
  return policy;
}

const std::vector<std::string>& PolicyNames() {
  static const std::vector<std::string> kNames = {"fifo", "fair", "capacity",
                                                  "atlas"};
  return kNames;
}

}  // namespace hogsim::sched
