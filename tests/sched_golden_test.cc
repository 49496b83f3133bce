// Golden pins for the scheduler extraction (ISSUE 7).
//
// These tests freeze the FIFO scheduler's observable behaviour on a fixed
// 3-site workload — executed-event counts, per-job completion timestamps,
// attempt totals, and the locality-level matrix (node-local / rack-local /
// off-site map counts per job) — as hard constants captured from the
// pre-extraction jobtracker. The src/sched extraction must keep every one
// of them byte-identical: a drift here means the refactor changed
// scheduling behaviour, not just its home.
//
// The twin-run test additionally proves the run is self-deterministic
// (two identical harnesses replay the same trajectory), so a golden
// mismatch can only come from a code change, never from ambient state.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "tests/test_cluster.h"

namespace hogsim::mr {
namespace {

struct JobGolden {
  int data_local = 0;
  int rack_local = 0;
  int remote = 0;
  long long finished_us = 0;  // SimTime of job completion
};

struct WorkloadGolden {
  std::vector<JobGolden> jobs;
  unsigned long long executed_events = 0;
  unsigned long long attempts_launched = 0;
};

bool operator==(const JobGolden& a, const JobGolden& b) {
  return a.data_local == b.data_local && a.rack_local == b.rack_local &&
         a.remote == b.remote && a.finished_us == b.finished_us;
}

bool operator==(const WorkloadGolden& a, const WorkloadGolden& b) {
  return a.jobs == b.jobs && a.executed_events == b.executed_events &&
         a.attempts_launched == b.attempts_launched;
}

/// The fixed 3-site workload: 12 workers (4 per site), four jobs with
/// enough maps to queue behind 24 map slots, submitted together so FIFO
/// ordering matters.
WorkloadGolden RunFixedWorkload(const std::string& scheduler) {
  MrConfig config;
  config.scheduler = scheduler;
  TestCluster h = SchedCluster(config);

  std::vector<JobId> jobs;
  jobs.push_back(h.Submit(Maps(24), 2));
  jobs.push_back(h.Submit(Maps(16), 1));
  jobs.push_back(h.Submit(Maps(8), 1));
  jobs.push_back(h.Submit(Maps(6), 1));
  EXPECT_TRUE(h.RunToCompletion());

  WorkloadGolden golden;
  for (JobId id : jobs) {
    const JobInfo& job = h.jt().job(id);
    EXPECT_EQ(job.state, JobState::kSucceeded);
    golden.jobs.push_back({job.data_local_maps, job.rack_local_maps,
                           job.remote_maps,
                           static_cast<long long>(job.finished)});
  }
  golden.executed_events = h.sim().executed();
  golden.attempts_launched = h.jt().attempts_launched();
  return golden;
}

void PrintGolden(const char* label, const WorkloadGolden& g) {
  std::printf("golden[%s]: executed=%llu launched=%llu\n", label,
              g.executed_events, g.attempts_launched);
  for (std::size_t i = 0; i < g.jobs.size(); ++i) {
    std::printf("  job%zu: local=%d rack=%d remote=%d finished=%lld\n", i,
                g.jobs[i].data_local, g.jobs[i].rack_local, g.jobs[i].remote,
                g.jobs[i].finished_us);
  }
}

/// Captured from the pre-extraction FIFO jobtracker (this file's first
/// commit): the extraction and every later scheduler change must keep
/// FIFO's numbers exactly.
WorkloadGolden FifoGolden() {
  WorkloadGolden golden;
  golden.jobs = {
      {23, 1, 0, 181601163},
      {14, 2, 0, 237117400},
      {5, 3, 0, 127561380},
      {4, 2, 0, 109181863},
  };
  golden.executed_events = 4769;
  golden.attempts_launched = 60;
  return golden;
}

TEST(SchedGolden, FifoTwinRunsAreByteIdentical) {
  const WorkloadGolden first = RunFixedWorkload("fifo");
  const WorkloadGolden second = RunFixedWorkload("fifo");
  EXPECT_TRUE(first == second) << "FIFO is not self-deterministic";
}

TEST(SchedGolden, FifoMatchesPreExtractionGolden) {
  const WorkloadGolden actual = RunFixedWorkload("fifo");
  const WorkloadGolden expected = FifoGolden();
  if (!(actual == expected)) {
    PrintGolden("expected", expected);
    PrintGolden("actual", actual);
  }
  EXPECT_TRUE(actual == expected)
      << "FIFO behaviour drifted from the pre-extraction pin";
}

}  // namespace
}  // namespace hogsim::mr
