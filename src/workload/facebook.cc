#include "src/workload/facebook.h"

#include <algorithm>
#include <map>
#include <utility>

namespace hogsim::workload {

const std::array<FacebookBin, 9>& FacebookTable1() {
  static const std::array<FacebookBin, 9> kTable = {{
      {1, "1", 0.39, 1, 38},
      {2, "2", 0.16, 2, 16},
      {3, "3-20", 0.14, 10, 14},
      {4, "21-60", 0.09, 50, 8},
      {5, "61-150", 0.06, 100, 6},
      {6, "151-300", 0.06, 200, 6},
      {7, "301-500", 0.04, 400, 4},
      {8, "501-1500", 0.04, 800, 4},
      {9, ">1501", 0.03, 4800, 4},
  }};
  return kTable;
}

const std::array<TruncatedBin, 6>& FacebookTable2() {
  static const std::array<TruncatedBin, 6> kTable = {{
      {1, 1, 1},
      {2, 2, 1},
      {3, 10, 5},
      {4, 50, 10},
      {5, 100, 20},
      {6, 200, 30},
  }};
  return kTable;
}

std::vector<ScheduledJob> GenerateFacebookSchedule(
    Rng& rng, const WorkloadConfig& config) {
  // Expand the bin mix (bins 1-6 of Table I give 88 jobs)...
  std::vector<ScheduledJob> jobs;
  for (const TruncatedBin& bin : FacebookTable2()) {
    const int count = FacebookTable1()[static_cast<std::size_t>(bin.bin - 1)]
                          .jobs;
    for (int i = 0; i < count; ++i) {
      ScheduledJob job;
      job.bin = bin.bin;
      job.maps = bin.map_tasks;
      job.reduces = bin.reduce_tasks;
      jobs.push_back(job);
    }
  }
  // ...interleave sizes with a Fisher-Yates shuffle (sampling the trace
  // yields no size ordering)...
  for (std::size_t i = jobs.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(jobs[i - 1], jobs[j]);
  }
  // ...and stamp exponential inter-arrival times (mean 14 s).
  SimTime t = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit_time = t;
    jobs[i].name = "fb-job-" + std::to_string(i) + "-bin" +
                   std::to_string(jobs[i].bin);
    t += FromSeconds(rng.Exponential(config.interarrival_mean_s));
  }
  return jobs;
}

std::vector<ScheduledJob> CycleSchedule(const std::vector<ScheduledJob>& shapes,
                                        int jobs, Rng& rng,
                                        const WorkloadConfig& config) {
  std::vector<ScheduledJob> schedule;
  schedule.reserve(static_cast<std::size_t>(jobs));
  SimTime at = 0;
  for (int i = 0; i < jobs; ++i) {
    ScheduledJob job = shapes[static_cast<std::size_t>(i) % shapes.size()];
    job.submit_time = at;
    job.name += "-" + std::to_string(i);
    schedule.push_back(std::move(job));
    at += FromSeconds(rng.Exponential(config.interarrival_mean_s));
  }
  return schedule;
}

mr::JobSpec MakeJobSpec(const ScheduledJob& job, hdfs::FileId input,
                        const WorkloadConfig& config) {
  mr::JobSpec spec;
  spec.name = job.name;
  spec.input = input;
  spec.num_reduces = job.reduces;
  spec.user = job.user;
  spec.queue = job.queue;
  spec.map_selectivity = config.map_selectivity;
  spec.reduce_selectivity = config.reduce_selectivity;
  spec.map_compute_rate = config.map_compute_rate;
  spec.reduce_compute_rate = config.reduce_compute_rate;
  return spec;
}

std::vector<std::pair<int, Bytes>> InputSizeClasses(
    const std::vector<ScheduledJob>& schedule) {
  std::map<int, Bytes> classes;
  for (const ScheduledJob& job : schedule) {
    classes[job.maps] = static_cast<Bytes>(job.maps) * hdfs::kBlockSize;
  }
  return {classes.begin(), classes.end()};
}

}  // namespace hogsim::workload
