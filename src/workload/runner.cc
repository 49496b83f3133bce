#include "src/workload/runner.h"

#include <algorithm>

namespace hogsim::workload {

bool RunSimUntil(sim::Simulation& sim, const std::function<bool()>& done,
                 SimTime deadline, SimDuration step) {
  while (!done()) {
    if (sim.now() >= deadline) return false;
    sim.RunUntil(std::min<SimTime>(sim.now() + step, deadline));
  }
  return true;
}

WorkloadRunner::WorkloadRunner(sim::Simulation& sim, mr::JobTracker& jobtracker,
                               hdfs::Namenode& namenode, WorkloadConfig config)
    : sim_(sim), jt_(jobtracker), nn_(namenode), config_(config) {}

void WorkloadRunner::PrepareInputs(const std::vector<ScheduledJob>& schedule) {
  for (const auto& [maps, bytes] : InputSizeClasses(schedule)) {
    inputs_by_maps_[maps] =
        nn_.ImportFile("fb-input-" + std::to_string(maps) + "maps", bytes);
  }
}

void WorkloadRunner::SubmitAll(const std::vector<ScheduledJob>& schedule) {
  started_ = sim_.now();
  scheduled_ += schedule.size();
  for (const ScheduledJob& job : schedule) {
    sim_.ScheduleAfter(job.submit_time, [this, job] {
      const hdfs::FileId input = inputs_by_maps_.at(job.maps);
      const mr::JobId id = jt_.SubmitJob(MakeJobSpec(job, input, config_));
      submitted_.emplace_back(id, job.bin);
      ++submissions_done_;
    });
  }
}

bool WorkloadRunner::Done() const {
  if (submissions_done_ < scheduled_) return false;
  for (const auto& [id, bin] : submitted_) {
    if (jt_.job(id).state == mr::JobState::kRunning) return false;
  }
  return true;
}

WorkloadResult WorkloadRunner::Run(SimTime deadline) {
  const bool finished =
      RunSimUntil(sim_, [this] { return Done(); }, deadline);
  WorkloadResult result = Collect();
  result.completed = finished;
  return result;
}

WorkloadResult WorkloadRunner::Collect() const {
  WorkloadResult result;
  result.completed = Done();
  result.started = started_;
  SimTime last = started_;
  for (const auto& [id, bin] : submitted_) {
    const mr::JobInfo& job = jt_.job(id);
    if (job.state == mr::JobState::kSucceeded) {
      ++result.succeeded;
      const double response = ToSeconds(job.ResponseTime());
      result.job_response_s.push_back(response);
      result.per_bin_response_s[bin].Add(response);
      last = std::max(last, job.finished);
    } else if (job.state == mr::JobState::kFailed) {
      ++result.failed;
      last = std::max(last, job.finished);
    }
  }
  result.response_time_s = ToSeconds(last - started_);
  return result;
}

}  // namespace hogsim::workload
