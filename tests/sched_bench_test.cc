// Seed-determinism pin for the scheduler head-to-head (hogbench sched).
//
// BENCH_sched.json carries no host.* rows, so the whole file must be
// byte-identical across machines and --threads values. This pins the
// sweep JSON across thread counts for a trimmed two-policy sweep; the
// compare_bench leg in scripts/check.sh checks the same rows run by run
// against the committed baseline.
#include <string>

#include "gtest/gtest.h"
#include "src/exp/experiments.h"
#include "src/exp/sweep.h"

namespace hogsim {
namespace {

TEST(SchedBench, BenchSchedJsonByteIdenticalAcrossThreads) {
  const auto render = [](unsigned threads) {
    exp::SweepSpec spec;
    spec.name = "sched";
    spec.seeds = {11, 23};
    spec.configs = 2;
    spec.config_labels = {"fifo", "atlas"};
    spec.threads = threads;
    const exp::SweepResult result = exp::RunSweep(
        spec, [](std::size_t config, std::uint64_t seed) -> exp::Metrics {
          exp::SchedRunConfig run;
          run.nodes = 20;
          run.jobs = 9;
          exp::HogRunOptions options;
          options.scheduler = config == 0 ? "fifo" : "atlas";
          return exp::RunSchedWorkload(run, seed, options);
        });
    return exp::ToBenchJson(spec, result);
  };
  const std::string sequential = render(1);
  const std::string parallel = render(4);
  EXPECT_EQ(sequential, parallel);
  EXPECT_NE(sequential.find("\"goodput_per_slot_hour\""), std::string::npos);
  EXPECT_NE(sequential.find("\"audit_violations\""), std::string::npos);
}

// The chaos palette must be keyed by its fixed seed alone — every policy
// faces the identical fault sequence — and a policy run must actually be
// shaped by its policy: fifo and fair diverge on the multi-user schedule.
TEST(SchedBench, PoliciesShareFaultsButDiverge) {
  const auto run = [](const std::string& scheduler) {
    exp::SchedRunConfig config;
    config.nodes = 20;
    config.jobs = 12;
    exp::HogRunOptions options;
    options.scheduler = scheduler;
    return exp::RunSchedWorkload(config, 11, options);
  };
  const exp::Metrics fifo = run("fifo");
  const exp::Metrics fifo_again = run("fifo");
  ASSERT_EQ(fifo.size(), fifo_again.size());
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    EXPECT_EQ(fifo[i].first, fifo_again[i].first);
    EXPECT_EQ(fifo[i].second, fifo_again[i].second) << fifo[i].first;
  }
  const exp::Metrics fair = run("fair");
  bool diverged = false;
  for (std::size_t i = 0; i < fifo.size() && i < fair.size(); ++i) {
    if (fifo[i].second != fair[i].second) diverged = true;
  }
  EXPECT_TRUE(diverged) << "fair should reorder the multi-user workload";
}

}  // namespace
}  // namespace hogsim
