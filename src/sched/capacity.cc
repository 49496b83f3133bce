#include "src/sched/capacity.h"

#include <algorithm>

#include "src/util/strings.h"

namespace hogsim::sched {

CapacityPolicy::CapacityPolicy(Spec& spec) {
  for (const std::string& entry : spec.List("queues")) {
    const std::vector<std::string> fields = Split(entry, ':');
    std::optional<double> capacity;
    std::optional<double> max;
    if (fields.size() == 3 && !fields[0].empty()) {
      capacity = ParseNumber(fields[1]);
      max = ParseNumber(fields[2]);
    }
    if (!capacity || !max) {
      spec.Fail({"queues entry '", entry, "' is not name:capacity:max"});
    }
    if (*capacity <= 0) {
      spec.Fail({"queues entry '", entry, "' has capacity <= 0"});
    }
    Queue q{fields[0], *capacity, *max, {}};
    for (const Queue& existing : queues_) {
      if (existing.name == q.name) {
        spec.Fail({"queues entry '", entry, "' repeats queue '", q.name, "'"});
      }
    }
    queues_.push_back(std::move(q));
  }
  if (queues_.empty()) queues_.push_back({"default", 1.0, 1.0, {}});
  double sum = 0;
  for (const Queue& q : queues_) sum += q.capacity;
  for (Queue& q : queues_) {
    q.capacity /= sum;
    q.max = std::clamp(q.max, q.capacity, 1.0);
  }
}

CapacityPolicy::Queue& CapacityPolicy::RouteQueue(const std::string& name) {
  for (Queue& q : queues_) {
    if (q.name == name) return q;
  }
  return queues_.front();  // "" and undeclared names go to the first queue
}

void CapacityPolicy::OnJobSubmitted(mr::JobId job_id) {
  RouteQueue(view_->job(job_id).spec.queue).jobs.push_back(job_id);
}

int CapacityPolicy::QueueUsage(Queue& queue, bool maps) {
  int usage = 0;
  for (std::size_t i = 0; i < queue.jobs.size();) {
    mr::JobInfo& job = view_->job(queue.jobs[i]);
    if (job.state != mr::JobState::kRunning) {
      queue.jobs.erase(queue.jobs.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    usage += maps ? job.running_map_attempts : job.running_reduce_attempts;
    ++i;
  }
  return usage;
}

Assignment CapacityPolicy::Pick(mr::TrackerId tracker, bool maps) {
  const int total =
      maps ? view_->total_map_slots() : view_->total_reduce_slots();
  // Saturation order: usage relative to the guaranteed share, ascending,
  // queue name tied — the furthest-below-guarantee queue bids first.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(queues_.size());
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    Queue& queue = queues_[q];
    if (queue.jobs.empty()) continue;
    const int usage = QueueUsage(queue, maps);
    // Elastic hard cap: a queue at `max` of the cluster's slots (per task
    // type) stops bidding even if slots are free.
    if (total > 0 && usage + 1 > queue.max * total) continue;
    order.emplace_back(usage / (queue.capacity * std::max(total, 1)), q);
  }
  std::sort(order.begin(), order.end(),
            [this](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return queues_[a.second].name < queues_[b.second].name;
            });
  for (const auto& [saturation, q] : order) {
    Queue& queue = queues_[q];
    for (std::size_t i = 0; i < queue.jobs.size();) {
      mr::JobInfo& job = view_->job(queue.jobs[i]);
      if (job.state != mr::JobState::kRunning) {
        queue.jobs.erase(queue.jobs.begin() + static_cast<std::ptrdiff_t>(i));
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
  }
  return {};
}

Assignment CapacityPolicy::PickMap(mr::TrackerId tracker) {
  return Pick(tracker, /*maps=*/true);
}

Assignment CapacityPolicy::PickReduce(mr::TrackerId tracker) {
  return Pick(tracker, /*maps=*/false);
}

}  // namespace hogsim::sched
