#include "src/sched/fair.h"

#include <algorithm>

#include "src/util/strings.h"

namespace hogsim::sched {

namespace {

const std::string& PoolKey(const mr::JobInfo& job) {
  static const std::string kDefault = "default";
  return job.spec.user.empty() ? kDefault : job.spec.user;
}

}  // namespace

FairPolicy::FairPolicy(Spec& spec) {
  for (const std::string& entry : spec.List("weights")) {
    const std::vector<std::string> fields = Split(entry, ':');
    std::optional<double> w;
    if (fields.size() == 2 && !fields[0].empty()) w = ParseNumber(fields[1]);
    if (!w) spec.Fail({"weights entry '", entry, "' is not user:weight"});
    if (*w <= 0) spec.Fail({"weights entry '", entry, "' is not > 0"});
    weights_[fields[0]] = *w;
  }
  const double preempt_s =
      spec.Number("preempt_timeout_s", ToSeconds(preempt_timeout_));
  if (preempt_s < 0) {
    spec.Fail({"preempt_timeout_s must be >= 0 (0 turns preemption off)"});
  }
  preempt_timeout_ = static_cast<SimDuration>(preempt_s * kSecond);
  tick_ = static_cast<SimDuration>(spec.Number("tick_s", ToSeconds(tick_)) *
                                   kSecond);
  if (tick_ <= 0) spec.Fail({"tick_s must be > 0"});
}

void FairPolicy::OnAttach() {
  if (preempt_timeout_ > 0) {
    timer_.Start(view_->sim(), tick_, [this] { PreemptionTick(); });
  }
}

void FairPolicy::OnJobSubmitted(mr::JobId job_id) {
  const std::string& key = PoolKey(view_->job(job_id));
  auto [it, inserted] = pools_.try_emplace(key);
  if (inserted) {
    const auto w = weights_.find(key);
    if (w != weights_.end()) it->second.weight = w->second;
  }
  it->second.jobs.push_back(job_id);
}

int FairPolicy::PoolUsage(Pool& pool, bool maps) {
  int usage = 0;
  for (std::size_t i = 0; i < pool.jobs.size();) {
    mr::JobInfo& job = view_->job(pool.jobs[i]);
    if (job.state != mr::JobState::kRunning) {
      pool.jobs.erase(pool.jobs.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    usage += maps ? job.running_map_attempts : job.running_reduce_attempts;
    ++i;
  }
  return usage;
}

int FairPolicy::PoolDemand(Pool& pool, bool maps) {
  int demand = 0;
  for (mr::JobId id : pool.jobs) {
    mr::JobInfo& job = view_->job(id);
    if (job.state != mr::JobState::kRunning) continue;
    for (const mr::TaskInfo& task : maps ? job.maps : job.reduces) {
      if (view_->TaskNeedsAttempt(job, task)) ++demand;
    }
  }
  return demand;
}

Assignment FairPolicy::PickFrom(Pool& pool, mr::TrackerId tracker, bool maps) {
  for (std::size_t i = 0; i < pool.jobs.size();) {
    mr::JobInfo& job = view_->job(pool.jobs[i]);
    if (job.state != mr::JobState::kRunning) {
      pool.jobs.erase(pool.jobs.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (maps) {
      int locality = 2;
      bool speculative = false;
      const int task =
          view_->PickMapTask(job, tracker, &locality, &speculative);
      if (task >= 0 && !speculative &&
          !view_->LocalityWaitPermits(job, locality)) {
        ++i;
        continue;
      }
      if (task >= 0) return {job.id, task, speculative, locality};
    } else {
      bool speculative = false;
      const int task = view_->PickReduceTask(job, tracker, &speculative);
      if (task >= 0) return {job.id, task, speculative, 2};
    }
    ++i;
  }
  return {};
}

Assignment FairPolicy::PickMap(mr::TrackerId tracker) {
  // Deficit order: usage/weight ascending, name-tied — the most
  // under-served pool bids first, but every pool eventually bids, so no
  // slot idles while any pool has runnable work.
  std::vector<std::pair<double, std::string>> order;
  order.reserve(pools_.size());
  for (auto& [pool_name, pool] : pools_) {
    if (pool.jobs.empty()) continue;
    order.emplace_back(PoolUsage(pool, /*maps=*/true) / pool.weight,
                       pool_name);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [deficit, pool_name] : order) {
    const Assignment pick =
        PickFrom(pools_.at(pool_name), tracker, /*maps=*/true);
    if (pick.valid()) return pick;
  }
  return {};
}

Assignment FairPolicy::PickReduce(mr::TrackerId tracker) {
  std::vector<std::pair<double, std::string>> order;
  order.reserve(pools_.size());
  for (auto& [pool_name, pool] : pools_) {
    if (pool.jobs.empty()) continue;
    order.emplace_back(PoolUsage(pool, /*maps=*/false) / pool.weight,
                       pool_name);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [deficit, pool_name] : order) {
    const Assignment pick =
        PickFrom(pools_.at(pool_name), tracker, /*maps=*/false);
    if (pick.valid()) return pick;
  }
  return {};
}

void FairPolicy::PreemptionTick() {
  const int total = view_->total_map_slots();
  if (total <= 0) return;

  // Weighted min-shares over pools with demand, each capped by its demand.
  double weight_sum = 0;
  std::map<std::string, int> demand;
  std::map<std::string, int> usage;
  for (auto& [pool_name, pool] : pools_) {
    const int d = PoolDemand(pool, /*maps=*/true);
    const int u = PoolUsage(pool, /*maps=*/true);
    demand[pool_name] = d;
    usage[pool_name] = u;
    if (d > 0 || u > 0) weight_sum += pool.weight;
  }
  if (weight_sum <= 0) return;

  // The most-starved pool (deficit order, name-tied) that has been below
  // its min-share for the full timeout reclaims one slot per tick.
  std::string starved;
  double starved_deficit = 0;
  for (auto& [pool_name, pool] : pools_) {
    const int share = std::min(
        demand[pool_name],
        static_cast<int>(total * pool.weight / weight_sum));
    const bool below = demand[pool_name] > 0 && usage[pool_name] < share;
    if (!below) {
      pool.starved_since = -1;
      continue;
    }
    if (pool.starved_since < 0) pool.starved_since = view_->now();
    if (view_->now() - pool.starved_since < preempt_timeout_) continue;
    const double deficit = usage[pool_name] / pool.weight;
    if (starved.empty() || deficit < starved_deficit ||
        (deficit == starved_deficit && pool_name < starved)) {
      starved = pool_name;
      starved_deficit = deficit;
    }
  }
  if (starved.empty()) return;

  // Donor: the pool most over its weighted share; victim: its newest map
  // attempt (largest AttemptId — least work lost, deterministic).
  std::string donor;
  double donor_excess = 0;
  for (auto& [pool_name, pool] : pools_) {
    if (pool_name == starved) continue;
    const double share = total * pool.weight / weight_sum;
    const double excess = usage[pool_name] - share;
    if (excess <= 0) continue;
    if (donor.empty() || excess > donor_excess ||
        (excess == donor_excess && pool_name < donor)) {
      donor = pool_name;
      donor_excess = excess;
    }
  }
  if (donor.empty()) return;

  mr::AttemptId victim = mr::kInvalidAttempt;
  for (mr::JobId id : pools_.at(donor).jobs) {
    mr::JobInfo& job = view_->job(id);
    if (job.state != mr::JobState::kRunning) continue;
    for (const mr::TaskInfo& task : job.maps) {
      for (mr::AttemptId a : task.active_attempts) {
        if (a > victim || victim == mr::kInvalidAttempt) victim = a;
      }
    }
  }
  if (victim == mr::kInvalidAttempt) return;
  view_->PreemptAttempt(victim);
  // Pace: one preemption per timeout window, not one per tick.
  pools_.at(starved).starved_since = view_->now();
}

}  // namespace hogsim::sched
