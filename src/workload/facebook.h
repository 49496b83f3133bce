// The paper's evaluation workload (§IV.A): a 100-job submission schedule
// derived from Facebook's October-2009 production trace by Zaharia et al.
// (Table I), truncated to the first six bins (Table II) — 88 jobs covering
// ~89% of Facebook's job-size distribution — with exponential inter-arrival
// times of mean 14 s (a ~21-minute schedule).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "src/mapreduce/types.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace hogsim::workload {

/// One row of the paper's Table I.
struct FacebookBin {
  int bin;                 // 1-9
  std::string maps_label;  // "#Maps at Facebook" column (e.g. "3-20")
  double fraction;         // %Jobs at Facebook
  int maps;                // "#Maps in Benchmark"
  int jobs;                // "# of jobs in Benchmark"
};

/// Table I verbatim.
const std::array<FacebookBin, 9>& FacebookTable1();

/// One row of Table II (the truncated workload used in the paper).
struct TruncatedBin {
  int bin;
  int map_tasks;
  int reduce_tasks;
};

/// Table II verbatim: reduce counts are non-decreasing in map counts.
const std::array<TruncatedBin, 6>& FacebookTable2();

/// One job of the generated schedule.
struct ScheduledJob {
  int bin = 0;
  int maps = 0;
  int reduces = 0;
  SimTime submit_time = 0;
  std::string name;
  /// Submitting user ("" = "default"): the Fair scheduler's pool key.
  std::string user;
  /// Target queue ("" = first declared): the Capacity scheduler's route.
  std::string queue;
};

struct WorkloadConfig {
  /// Mean inter-arrival time (exponential), 14 s in the paper.
  double interarrival_mean_s = 14.0;
  /// Shuffle / compute shape of every loadgen job.
  double map_selectivity = 1.0;
  double reduce_selectivity = 0.4;
  Rate map_compute_rate = MiBps(1.0);
  Rate reduce_compute_rate = MiBps(1.8);
};

/// Generates the 88-job truncated Facebook schedule. Job order is a
/// deterministic shuffle of the bin mix (so sizes interleave as they would
/// when sampling the trace); submit times are a Poisson process with the
/// configured mean gap.
std::vector<ScheduledJob> GenerateFacebookSchedule(Rng& rng,
                                                   const WorkloadConfig&
                                                       config = {});

/// A synthetic `jobs`-long schedule that cycles through `shapes` in
/// order, with Poisson arrivals like the paper's (mean
/// config.interarrival_mean_s). Job i copies shapes[i % shapes.size()]
/// (bin, maps, reduces, user, queue) and is named "<shape name>-<i>".
/// The Facebook schedule has a fixed 88 jobs, so benches that sweep
/// schedule length or need multi-user or storm-shaped load use this.
std::vector<ScheduledJob> CycleSchedule(const std::vector<ScheduledJob>& shapes,
                                        int jobs, Rng& rng,
                                        const WorkloadConfig& config = {});

/// Builds the JobSpec for a scheduled job (input file must be created by
/// the harness: maps * hdfs::kBlockSize bytes).
mr::JobSpec MakeJobSpec(const ScheduledJob& job, hdfs::FileId input,
                        const WorkloadConfig& config);

/// Total input bytes the schedule needs per bin-`maps` size class, so the
/// harness can pre-load one input file per class and share it between jobs
/// of the same size (as loadgen runs against pre-generated datasets).
std::vector<std::pair<int, Bytes>> InputSizeClasses(
    const std::vector<ScheduledJob>& schedule);

}  // namespace hogsim::workload
