// Tests for the Facebook workload generator (Tables I & II) and the
// workload runner metrics.
#include <gtest/gtest.h>

#include <map>

#include "src/workload/facebook.h"
#include "src/workload/runner.h"

namespace hogsim::workload {
namespace {

TEST(Facebook, Table1MatchesPaper) {
  const auto& t1 = FacebookTable1();
  // Spot-check the published rows.
  EXPECT_EQ(t1[0].maps, 1);
  EXPECT_EQ(t1[0].jobs, 38);
  EXPECT_DOUBLE_EQ(t1[0].fraction, 0.39);
  EXPECT_EQ(t1[2].maps_label, "3-20");
  EXPECT_EQ(t1[2].maps, 10);
  EXPECT_EQ(t1[5].maps, 200);
  EXPECT_EQ(t1[5].jobs, 6);
  EXPECT_EQ(t1[8].maps, 4800);
  EXPECT_EQ(t1[8].jobs, 4);
  // Fractions sum to ~1.01 in the paper (rounding); jobs sum to 100.
  int jobs = 0;
  for (const auto& bin : t1) jobs += bin.jobs;
  EXPECT_EQ(jobs, 100);
}

TEST(Facebook, Table2MatchesPaper) {
  const auto& t2 = FacebookTable2();
  const int maps[] = {1, 2, 10, 50, 100, 200};
  const int reduces[] = {1, 1, 5, 10, 20, 30};
  for (std::size_t i = 0; i < t2.size(); ++i) {
    EXPECT_EQ(t2[i].map_tasks, maps[i]);
    EXPECT_EQ(t2[i].reduce_tasks, reduces[i]);
  }
  // Reduce counts are non-decreasing in map counts (the paper's rule).
  for (std::size_t i = 1; i < t2.size(); ++i) {
    EXPECT_GE(t2[i].reduce_tasks, t2[i - 1].reduce_tasks);
  }
}

TEST(Facebook, ScheduleHas88JobsWithPaperMix) {
  Rng rng(1);
  const auto schedule = GenerateFacebookSchedule(rng);
  EXPECT_EQ(schedule.size(), 88u);  // bins 1-6 of Table I
  std::map<int, int> by_bin;
  for (const auto& job : schedule) by_bin[job.bin]++;
  EXPECT_EQ(by_bin[1], 38);
  EXPECT_EQ(by_bin[2], 16);
  EXPECT_EQ(by_bin[3], 14);
  EXPECT_EQ(by_bin[4], 8);
  EXPECT_EQ(by_bin[5], 6);
  EXPECT_EQ(by_bin[6], 6);
  // Total map/reduce tasks across the schedule.
  int maps = 0, reduces = 0;
  for (const auto& job : schedule) {
    maps += job.maps;
    reduces += job.reduces;
  }
  EXPECT_EQ(maps, 38 * 1 + 16 * 2 + 14 * 10 + 8 * 50 + 6 * 100 + 6 * 200);
  EXPECT_EQ(reduces, 38 * 1 + 16 * 1 + 14 * 5 + 8 * 10 + 6 * 20 + 6 * 30);
}

TEST(Facebook, InterArrivalIsRoughlyExponentialMean14) {
  RunningStats gaps;
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto schedule = GenerateFacebookSchedule(rng);
    for (std::size_t i = 1; i < schedule.size(); ++i) {
      gaps.Add(ToSeconds(schedule[i].submit_time -
                         schedule[i - 1].submit_time));
    }
  }
  EXPECT_NEAR(gaps.mean(), 14.0, 1.0);
  // Exponential: stddev ~ mean.
  EXPECT_NEAR(gaps.stddev(), 14.0, 2.5);
}

TEST(Facebook, ScheduleLengthNear21Minutes) {
  // 88 gaps x 14 s ~ 20.5 min; the paper quotes ~21 minutes.
  RunningStats lengths;
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto schedule = GenerateFacebookSchedule(rng);
    lengths.Add(ToSeconds(schedule.back().submit_time));
  }
  EXPECT_NEAR(lengths.mean() / 60.0, 21.0, 3.0);
}

TEST(Facebook, SubmissionTimesAreSorted) {
  Rng rng(5);
  const auto schedule = GenerateFacebookSchedule(rng);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].submit_time, schedule[i - 1].submit_time);
  }
}

TEST(Facebook, ShuffleIsDeterministicPerSeed) {
  Rng a(9), b(9), c(10);
  const auto s1 = GenerateFacebookSchedule(a);
  const auto s2 = GenerateFacebookSchedule(b);
  const auto s3 = GenerateFacebookSchedule(c);
  ASSERT_EQ(s1.size(), s2.size());
  bool all_equal_12 = true, all_equal_13 = true;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    all_equal_12 &= (s1[i].bin == s2[i].bin &&
                     s1[i].submit_time == s2[i].submit_time);
    all_equal_13 &= (s1[i].bin == s3[i].bin);
  }
  EXPECT_TRUE(all_equal_12);
  EXPECT_FALSE(all_equal_13);
}

TEST(Facebook, InputSizeClassesCoverEveryJobSize) {
  Rng rng(2);
  const auto schedule = GenerateFacebookSchedule(rng);
  const auto classes = InputSizeClasses(schedule);
  ASSERT_EQ(classes.size(), 6u);
  for (const auto& [maps, bytes] : classes) {
    EXPECT_EQ(bytes, static_cast<Bytes>(maps) * hdfs::kBlockSize);
  }
}

TEST(Facebook, MakeJobSpecPropagatesShape) {
  WorkloadConfig config;
  config.map_selectivity = 0.7;
  ScheduledJob job;
  job.bin = 4;
  job.maps = 50;
  job.reduces = 10;
  job.name = "x";
  const auto spec = MakeJobSpec(job, 3, config);
  EXPECT_EQ(spec.input, 3u);
  EXPECT_EQ(spec.num_reduces, 10);
  EXPECT_DOUBLE_EQ(spec.map_selectivity, 0.7);
  EXPECT_EQ(spec.name, "x");
}

}  // namespace
}  // namespace hogsim::workload
