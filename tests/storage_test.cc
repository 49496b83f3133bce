// Unit tests for the disk model: capacity accounting, fair bandwidth
// sharing, and the zombie writability flag.
#include <gtest/gtest.h>

#include "src/storage/disk.h"

namespace hogsim::storage {
namespace {

class DiskTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
};

TEST_F(DiskTest, ReserveRelease) {
  Disk disk(sim_, 100 * kMiB, MiBps(100));
  EXPECT_EQ(disk.free(), 100 * kMiB);
  EXPECT_TRUE(disk.Reserve(60 * kMiB));
  EXPECT_EQ(disk.used(), 60 * kMiB);
  EXPECT_FALSE(disk.Reserve(50 * kMiB));  // would exceed capacity
  EXPECT_EQ(disk.used(), 60 * kMiB);      // failed reserve changes nothing
  EXPECT_TRUE(disk.Reserve(40 * kMiB));   // exactly full
  EXPECT_EQ(disk.free(), 0);
  disk.Release(100 * kMiB);
  EXPECT_EQ(disk.used(), 0);
}

TEST_F(DiskTest, SingleOpRunsAtFullBandwidth) {
  Disk disk(sim_, kGiB, MiBps(100));
  SimTime done_at = -1;
  disk.Read(100 * kMiB, [&] { done_at = sim_.now(); });
  sim_.RunAll();
  EXPECT_NEAR(ToSeconds(done_at), 1.0, 0.001);
}

TEST_F(DiskTest, ConcurrentOpsShareBandwidth) {
  Disk disk(sim_, kGiB, MiBps(100));
  SimTime a_done = -1, b_done = -1;
  disk.Read(100 * kMiB, [&] { a_done = sim_.now(); });
  disk.Write(100 * kMiB, [&] { b_done = sim_.now(); });
  sim_.RunAll();
  // Both share 100 MiB/s: each effectively 50 MiB/s, finishing together.
  EXPECT_NEAR(ToSeconds(a_done), 2.0, 0.01);
  EXPECT_NEAR(ToSeconds(b_done), 2.0, 0.01);
}

TEST_F(DiskTest, LateArrivalPreservesEarlierProgress) {
  Disk disk(sim_, kGiB, MiBps(100));
  SimTime a_done = -1, b_done = -1;
  disk.Read(100 * kMiB, [&] { a_done = sim_.now(); });
  sim_.ScheduleAt(FromSeconds(0.5), [&] {
    disk.Read(100 * kMiB, [&] { b_done = sim_.now(); });
  });
  sim_.RunAll();
  // A: 50 MiB alone (0.5 s), 50 MiB shared (1.0 s) -> done at 1.5 s.
  EXPECT_NEAR(ToSeconds(a_done), 1.5, 0.01);
  // B: 50 MiB shared (1.0 s), then 50 MiB alone (0.5 s) -> done at 2.0 s.
  EXPECT_NEAR(ToSeconds(b_done), 2.0, 0.01);
}

TEST_F(DiskTest, ZeroByteOpCompletesImmediately) {
  Disk disk(sim_, kGiB, MiBps(100));
  bool done = false;
  disk.Write(0, [&] { done = true; });
  sim_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim_.now(), 0);
}

TEST_F(DiskTest, CancelSuppressesCallback) {
  Disk disk(sim_, kGiB, MiBps(100));
  bool cancelled_fired = false;
  SimTime other_done = -1;
  const auto op = disk.Read(100 * kMiB, [&] { cancelled_fired = true; });
  disk.Read(100 * kMiB, [&] { other_done = sim_.now(); });
  sim_.ScheduleAt(FromSeconds(1.0), [&] { disk.Cancel(op); });
  sim_.RunAll();
  EXPECT_FALSE(cancelled_fired);
  // Shared for 1 s (50 MiB), then alone for 0.5 s.
  EXPECT_NEAR(ToSeconds(other_done), 1.5, 0.01);
}

TEST_F(DiskTest, CancelAllDropsEverything) {
  Disk disk(sim_, kGiB, MiBps(100));
  int fired = 0;
  disk.Read(10 * kMiB, [&] { ++fired; });
  disk.Write(10 * kMiB, [&] { ++fired; });
  disk.CancelAll();
  sim_.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(disk.active_ops(), 0u);
}

TEST_F(DiskTest, CancelAllLeavesTheQueueReusable) {
  Disk disk(sim_, kGiB, MiBps(100));
  int fired = 0;
  disk.Read(10 * kMiB, [&] { ++fired; });
  disk.Write(10 * kMiB, [&] { ++fired; });
  disk.CancelAll();
  SimTime done_at = -1;
  disk.Read(50 * kMiB, [&] { done_at = sim_.now(); });
  sim_.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(done_at, FromSeconds(0.5));  // alone at the full 100 MiB/s
}

// A stall freezes progress; a later, overlapping stall can only push the
// thaw out. One 100 MiB read at 100 MiB/s needs 1 s of unfrozen time.
SimTime StalledReadDoneAt(SimDuration second_stall) {
  sim::Simulation sim;
  Disk disk(sim, kGiB, MiBps(100));
  SimTime done_at = -1;
  disk.Read(100 * kMiB, [&] { done_at = sim.now(); });
  sim.ScheduleAt(FromSeconds(0.5), [&] { disk.Stall(kSecond); });
  if (second_stall > 0) {
    sim.ScheduleAt(FromSeconds(1.0), [&] { disk.Stall(second_stall); });
  }
  sim.RunAll();
  return done_at;
}

TEST(DiskStall, FreezesProgressForItsDuration) {
  // 0.5 s of progress, frozen until 1.5 s, then the other 0.5 s.
  EXPECT_EQ(StalledReadDoneAt(0), FromSeconds(2.0));
}

TEST(DiskStall, OverlappingStallExtendsButNeverShortens) {
  // Thaw at 1.2 s is inside the first freeze: nothing moves.
  EXPECT_EQ(StalledReadDoneAt(FromSeconds(0.2)), FromSeconds(2.0));
  // Thaw at 2.0 s outlasts it: the read finishes 0.5 s after.
  EXPECT_EQ(StalledReadDoneAt(kSecond), FromSeconds(2.5));
}

TEST_F(DiskTest, UnwritableDiskRejectsWritesButServesReads) {
  Disk disk(sim_, kGiB, MiBps(100));
  disk.set_writable(false);
  bool write_fired = false;
  EXPECT_EQ(disk.Write(kMiB, [&] { write_fired = true; }),
            FairQueue::kInvalidOp);
  bool read_fired = false;
  EXPECT_NE(disk.Read(kMiB, [&] { read_fired = true; }),
            FairQueue::kInvalidOp);
  sim_.RunAll();
  EXPECT_FALSE(write_fired);
  EXPECT_TRUE(read_fired);
}

TEST_F(DiskTest, ManyOpsCompleteInSizeOrder) {
  Disk disk(sim_, kGiB, MiBps(100));
  std::vector<int> completion_order;
  for (int i = 5; i >= 1; --i) {
    disk.Read(static_cast<Bytes>(i) * 10 * kMiB,
              [&, i] { completion_order.push_back(i); });
  }
  sim_.RunAll();
  // Equal shares mean the smallest op always finishes first.
  EXPECT_EQ(completion_order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_F(DiskTest, BandwidthConservation) {
  // Total time to drain N ops equals total bytes / bandwidth regardless of
  // arrival pattern (work conservation).
  Disk disk(sim_, 10 * kGiB, MiBps(50));
  int remaining = 8;
  for (int i = 0; i < 8; ++i) {
    sim_.ScheduleAt(FromSeconds(0.1 * i),
                    [&] { disk.Read(25 * kMiB, [&] { --remaining; }); });
  }
  sim_.RunAll();
  EXPECT_EQ(remaining, 0);
  // 200 MiB at 50 MiB/s = 4 s (first op starts at t=0).
  EXPECT_NEAR(ToSeconds(sim_.now()), 4.0, 0.05);
}

TEST_F(DiskTest, SetCapacityCanOverCommit) {
  Disk disk(sim_, 100 * kMiB, MiBps(100));
  ASSERT_TRUE(disk.Reserve(60 * kMiB));
  // Fault injection shrinks the disk below what is already used: free
  // clamps to zero and new reservations fail, but nothing is deleted.
  disk.SetCapacity(40 * kMiB);
  EXPECT_EQ(disk.capacity(), 40 * kMiB);
  EXPECT_EQ(disk.used(), 60 * kMiB);
  EXPECT_EQ(disk.free(), 0);
  EXPECT_FALSE(disk.Reserve(1));
  // Releasing recovers space once usage drops back under the new cap.
  disk.Release(30 * kMiB);
  EXPECT_EQ(disk.free(), 10 * kMiB);
  EXPECT_TRUE(disk.Reserve(10 * kMiB));
  EXPECT_FALSE(disk.Reserve(1));
  // Growing the disk again makes room immediately.
  disk.SetCapacity(100 * kMiB);
  EXPECT_TRUE(disk.Reserve(60 * kMiB));
}

}  // namespace
}  // namespace hogsim::storage
