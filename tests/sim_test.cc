// Unit tests for the discrete-event core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/flow_network.h"
#include "src/sim/calendar.h"
#include "src/sim/simulation.h"
#include "src/storage/disk.h"
#include "src/util/rng.h"

namespace hogsim::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulation, FifoAmongEqualTimestamps) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterUsesNow) {
  Simulation sim;
  SimTime fired = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { fired = sim.now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 150);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation sim;
  SimTime fired = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { fired = sim.now(); });  // in the past
  });
  sim.RunAll();
  EXPECT_EQ(fired, 100);
}

TEST(Simulation, NegativeDelayClamps) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAfter(-5, [&] { fired = true; });
  sim.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  auto handle = sim.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  sim.Cancel(handle);
  EXPECT_FALSE(handle.pending());
  sim.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, CancelIsIdempotentAndSafeOnEmptyHandle) {
  Simulation sim;
  EventHandle empty;
  sim.Cancel(empty);  // no crash
  auto handle = sim.ScheduleAt(10, [] {});
  sim.Cancel(handle);
  sim.Cancel(handle);
  sim.RunAll();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, CancelAfterFireIsNoOp) {
  Simulation sim;
  auto handle = sim.ScheduleAt(1, [] {});
  sim.RunAll();
  EXPECT_FALSE(handle.pending());
  sim.Cancel(handle);  // no crash, no double-count
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(10, [&] { fired.push_back(10); });
  sim.ScheduleAt(100, [&] { fired.push_back(100); });
  sim.RunUntil(50);
  EXPECT_EQ(fired, (std::vector<SimTime>{10}));
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(200);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulation, EventAtBoundaryRuns) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(50, [&] { fired = true; });
  sim.RunUntil(50);
  EXPECT_TRUE(fired);
}

TEST(Simulation, HardLimitStopsRunaway) {
  Simulation sim;
  // Self-perpetuating event chain.
  std::function<void()> loop = [&] { sim.ScheduleAfter(kSecond, loop); };
  sim.ScheduleAfter(kSecond, loop);
  sim.RunAll(/*hard_limit=*/10 * kSecond);
  EXPECT_TRUE(sim.LimitReached());
  EXPECT_LE(sim.now(), 10 * kSecond);
}

TEST(Simulation, EventsScheduledDuringExecutionRun) {
  Simulation sim;
  int depth = 0;
  std::function<void(int)> recurse = [&](int n) {
    depth = n;
    if (n < 5) sim.ScheduleAfter(1, [&, n] { recurse(n + 1); });
  };
  sim.ScheduleAt(0, [&] { recurse(1); });
  sim.RunAll();
  EXPECT_EQ(depth, 5);
}

TEST(Simulation, QueueStatsSurface) {
  Simulation sim;
  auto h1 = sim.ScheduleAt(10, [] {});
  auto h2 = sim.ScheduleAt(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.queued(), 2u);
  sim.Cancel(h1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.queued(), 2u);  // stale entry lingers (lazy delete)
  EXPECT_EQ(sim.cancelled(), 1u);
  sim.RunAll();
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.queued(), 0u);
  EXPECT_TRUE(h2.pending() == false);
}

TEST(Simulation, CancelDestroysCallbackImmediately) {
  Simulation sim;
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> observer = payload;
  auto handle = sim.ScheduleAt(kHour, [payload] { (void)*payload; });
  payload.reset();
  EXPECT_FALSE(observer.expired());
  sim.Cancel(handle);
  // The captured state must be freed at cancel time, not when the event's
  // timestamp is finally reached (its stale heap entry may still exist).
  EXPECT_TRUE(observer.expired());
}

TEST(Simulation, StaleHandleCannotCancelSlotReuser) {
  Simulation sim;
  bool fired = false;
  auto a = sim.ScheduleAt(10, [] {});
  auto a_copy = a;
  sim.Cancel(a);
  // b reuses a's arena slot; the old handle (and its copy) must not see or
  // affect it.
  auto b = sim.ScheduleAt(20, [&] { fired = true; });
  EXPECT_FALSE(a_copy.pending());
  sim.Cancel(a_copy);  // no-op
  EXPECT_TRUE(b.pending());
  sim.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulation, CancelReArmLoopKeepsQueueBounded) {
  Simulation sim;
  EventHandle timeout;
  std::size_t peak = 0;
  // Heartbeat pattern: every 30 s, cancel the pending expiry and re-arm it.
  // Under the old queue every cancelled entry lingered until its timestamp,
  // so the heap grew linearly with simulated time.
  for (int i = 0; i < 20000; ++i) {
    sim.Cancel(timeout);
    timeout = sim.ScheduleAfter(10 * kMinute, [] {});
    sim.RunUntil(sim.now() + 30 * kSecond);
    peak = std::max(peak, sim.queued());
  }
  EXPECT_EQ(sim.pending(), 1u);
  // Stale top entries are dropped incrementally by Step, so the heap never
  // grows with simulated time here.
  EXPECT_LE(peak, 64u);
}

TEST(Simulation, CompactionBoundsBuriedStaleEntries) {
  Simulation sim;
  std::vector<EventHandle> handles;
  handles.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    handles.push_back(sim.ScheduleAt(i, [] {}));
  }
  // Cancel 3/4 without running: these stale entries sit *behind* live ones,
  // so only compaction (not Step's incremental drop) can reclaim them.
  for (int i = 0; i < 1024; ++i) {
    if (i % 4 != 0) sim.Cancel(handles[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending(), 256u);
  EXPECT_GT(sim.compactions(), 0u);
  EXPECT_LT(sim.queued(), 1024u / 2);  // stale share held below half
  sim.RunAll();
  EXPECT_EQ(sim.executed(), 256u);
  EXPECT_EQ(sim.queued(), 0u);
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Simulation sim;
  PeriodicTimer timer;
  std::vector<SimTime> ticks;
  timer.Start(sim, 10, [&] { ticks.push_back(sim.now()); });
  sim.RunUntil(35);
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30}));
  timer.Stop();
}

TEST(PeriodicTimer, StopsCleanly) {
  Simulation sim;
  PeriodicTimer timer;
  int count = 0;
  timer.Start(sim, 10, [&] {
    if (++count == 3) timer.Stop();
  });
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(timer.running());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTimer, RestartChangesPeriod) {
  Simulation sim;
  PeriodicTimer timer;
  std::vector<SimTime> ticks;
  timer.Start(sim, 10, [&] { ticks.push_back(sim.now()); });
  sim.RunUntil(25);
  timer.Start(sim, 100, [&] { ticks.push_back(sim.now()); });
  sim.RunUntil(300);
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 125, 225}));
}

TEST(PeriodicTimer, DestructorCancels) {
  Simulation sim;
  int count = 0;
  {
    PeriodicTimer timer;
    timer.Start(sim, 10, [&] { ++count; });
  }
  sim.RunUntil(100);
  EXPECT_EQ(count, 0);
}

TEST(PeriodicTimer, StopBeforeStartIsSafe) {
  PeriodicTimer timer;
  timer.Stop();  // no crash
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, StopThenRestart) {
  Simulation sim;
  PeriodicTimer timer;
  std::vector<SimTime> ticks;
  timer.Start(sim, 10, [&] { ticks.push_back(sim.now()); });
  sim.RunUntil(25);
  timer.Stop();
  sim.RunUntil(60);
  timer.Start(sim, 10, [&] { ticks.push_back(sim.now()); });
  sim.RunUntil(85);
  timer.Stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 70, 80}));
}

TEST(PeriodicTimer, StopDetachesFromSimulation) {
  PeriodicTimer timer;
  int count = 0;
  {
    Simulation sim;
    timer.Start(sim, 10, [&] { ++count; });
    sim.RunUntil(25);
    timer.Stop();
  }  // sim destroyed; a stopped timer must hold no reference to it
  Simulation sim2;
  timer.Start(sim2, 10, [&] { ++count; });
  sim2.RunUntil(20);
  timer.Stop();
  EXPECT_EQ(count, 4);
}

TEST(PeriodicTimer, RestartFromTickCallback) {
  Simulation sim;
  PeriodicTimer timer;
  std::vector<SimTime> ticks;
  const std::function<void()> fast = [&] { ticks.push_back(sim.now()); };
  timer.Start(sim, 10, [&] {
    ticks.push_back(sim.now());
    timer.Start(sim, 5, fast);  // swap period + callback from inside a tick
  });
  sim.RunUntil(22);
  timer.Stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 15, 20}));
}

// ---------------------------------------------------------------------------
// Calendar: keyed deadlines behind one event, fired in per-event order

// Runs one script of plain events and keyed deadlines either through a
// Calendar or with one event per deadline (cancel + reschedule on every
// re-key: the pattern a Calendar replaces), and logs what fires when.
// Deadline `key` logs as 1000 + key, plain event `label` as itself. In
// calendar mode it also keeps a reference of every key's pending deadline
// and checks each key's Find() against it after every Set, Erase and fire.
class DeadlineHarness {
 public:
  using Key = Calendar::Key;

  // After the seq the constructor takes, every seq is drawn by Plain or
  // Due (a Calendar's ScheduleAtSeq reuses Set's), so the harness knows
  // the seq each Set reserves.
  explicit DeadlineHarness(bool calendar)
      : use_calendar_(calendar),
        calendar_(sim_, [this](Key key) { Fired(key); }),
        next_seq_(sim_.TakeSeq() + 1) {}

  Simulation& sim() { return sim_; }
  Calendar& calendar() { return calendar_; }
  const std::vector<std::pair<SimTime, int>>& log() const { return log_; }

  /// Runs after each deadline fires, before the batch is re-armed.
  std::function<void(Key)> on_fire;

  void Plain(SimTime t, int label, std::function<void()> then = {}) {
    ++next_seq_;
    sim_.ScheduleAt(t, [this, label, then] {
      log_.emplace_back(sim_.now(), label);
      if (then) then();
      Commit();
    });
  }
  void Due(Key key, SimTime t) {
    if (use_calendar_) {
      expected_[key] = Deadline{std::max(t, sim_.now()), next_seq_++};
      calendar_.Set(slots_[key], key, t);
      CheckFind();
      return;
    }
    sim_.Cancel(events_[key]);
    events_[key] = sim_.ScheduleAt(t, [this, key] {
      events_.erase(key);
      Fired(key);
    });
  }
  void Drop(Key key) {
    if (use_calendar_) {
      expected_.erase(key);
      calendar_.Erase(slots_[key]);
      CheckFind();
      return;
    }
    auto it = events_.find(key);
    if (it == events_.end()) return;
    sim_.Cancel(it->second);
    events_.erase(it);
  }
  /// Ends a batch of Due/Drop calls (the owner contract).
  void Commit() {
    if (use_calendar_) calendar_.Arm();
  }

 private:
  void Fired(Key key) {
    log_.emplace_back(sim_.now(), 1000 + static_cast<int>(key));
    if (use_calendar_) {
      expected_.erase(key);
      CheckFind();
    }
    if (on_fire) on_fire(key);
    Commit();
  }

  // Every key that ever had a deadline: Find() agrees with the reference.
  void CheckFind() {
    for (const auto& [key, slot] : slots_) {
      const Deadline* due = calendar_.Find(slot);
      const auto want = expected_.find(key);
      if (want == expected_.end()) {
        EXPECT_EQ(due, nullptr) << "key " << key;
        continue;
      }
      ASSERT_NE(due, nullptr) << "key " << key;
      EXPECT_EQ(due->time, want->second.time) << "key " << key;
      EXPECT_EQ(due->seq, want->second.seq) << "key " << key;
    }
    EXPECT_EQ(calendar_.size(), expected_.size());
  }

  bool use_calendar_;
  Simulation sim_;
  Calendar calendar_;
  std::map<Key, Calendar::Slot> slots_;  // node-based: slots stay put
  std::map<Key, Deadline> expected_;
  std::uint64_t next_seq_;
  std::map<Key, EventHandle> events_;
  std::vector<std::pair<SimTime, int>> log_;
};

void RunInterleavedScript(DeadlineHarness& h) {
  h.Plain(10, 1);
  h.Due(1, 10);
  h.Plain(10, 2);
  h.Due(2, 5);
  h.Due(3, 10);
  h.Due(8, 30);
  h.Plain(20, 3, [&h] {
    h.Due(4, 20);
    h.Plain(20, 4);
    h.Due(5, 20);
  });
  h.Commit();
  h.on_fire = [&h](DeadlineHarness::Key key) {
    if (key == 2) {
      h.Plain(10, 6);
      h.Due(3, 10);  // re-keyed to the same tick: now behind plain 6
      h.Due(6, 10);
      h.Plain(10, 5);
      h.Due(7, 5);  // same tick as the deadline firing now
    }
    if (key == 7) h.Due(8, 12);  // re-keyed earlier than its first key
    if (key == 6) h.Drop(3);     // already fired: no-op
    if (key == 4) h.Drop(5);     // erase a same-tick peer about to fire
  };
  h.sim().RunAll();
}

TEST(Calendar, InterleavesWithPlainEventsLikeOneEventPerDeadline) {
  DeadlineHarness per_event(false);
  DeadlineHarness calendar(true);
  RunInterleavedScript(per_event);
  RunInterleavedScript(calendar);
  const std::vector<std::pair<SimTime, int>> expected = {
      {5, 1002}, {5, 1007}, {10, 1}, {10, 1001}, {10, 2},
      {10, 6}, {10, 1003}, {10, 1006}, {10, 5}, {12, 1008},
      {20, 3}, {20, 1004}, {20, 4}};
  EXPECT_EQ(per_event.log(), expected);
  EXPECT_EQ(calendar.log(), expected);
  // One executed event per fired deadline, exactly as before.
  EXPECT_EQ(calendar.sim().executed(), per_event.sim().executed());
  EXPECT_TRUE(calendar.calendar().empty());
}

TEST(Calendar, RekeyEarlierAndLaterMovesTheArmedEvent) {
  Simulation sim;
  std::vector<std::pair<SimTime, Calendar::Key>> fired;
  Calendar cal(sim, [&](Calendar::Key key) { fired.emplace_back(sim.now(), key); });
  Calendar::Slot one, two;
  cal.Set(one, 1, 100);
  cal.Set(two, 2, 200);
  cal.Arm();
  EXPECT_EQ(sim.pending(), 1u);  // one event, however many deadlines

  cal.Set(two, 2, 200);  // same time, fresh seq: not the earliest, no re-arm
  cal.Arm();
  EXPECT_EQ(sim.cancelled(), 0u);

  cal.Set(one, 1, 300);  // the armed minimum moves later: re-arm at key 2
  cal.Arm();
  EXPECT_EQ(sim.cancelled(), 1u);
  ASSERT_NE(cal.Find(one), nullptr);
  EXPECT_EQ(cal.Find(one)->time, 300);

  cal.Set(one, 1, 50);  // ... and earlier than everything again
  cal.Arm();
  EXPECT_EQ(sim.cancelled(), 2u);
  EXPECT_EQ(sim.pending(), 1u);

  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<std::pair<SimTime, Calendar::Key>>{
                       {50, 1}, {200, 2}}));
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_EQ(cal.Find(one), nullptr);
}

TEST(Calendar, ErasingTheArmedMinimumFiresTheNext) {
  Simulation sim;
  std::vector<Calendar::Key> fired;
  Calendar cal(sim, [&](Calendar::Key key) { fired.push_back(key); });
  Calendar::Slot one, two, idle;
  cal.Set(one, 1, 100);
  cal.Set(two, 2, 200);
  cal.Arm();
  cal.Erase(one);
  cal.Erase(idle);  // never scheduled: no-op
  cal.Arm();
  EXPECT_EQ(sim.cancelled(), 1u);
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<Calendar::Key>{2}));
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Calendar, ClearAndEmptyScheduleNothing) {
  Simulation sim;
  int fired = 0;
  Calendar cal(sim, [&](Calendar::Key) { ++fired; });
  cal.Arm();  // empty: nothing to arm
  EXPECT_EQ(sim.pending(), 0u);

  Calendar::Slot slots[5];
  cal.Set(slots[1], 1, 10);
  cal.Erase(slots[1]);
  cal.Arm();  // emptied before arming: still nothing
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.cancelled(), 0u);

  for (Calendar::Key k = 0; k < 5; ++k) cal.Set(slots[k], k, 10 + k);
  cal.Arm();
  EXPECT_EQ(sim.pending(), 1u);
  cal.Clear();
  EXPECT_TRUE(cal.empty());
  for (const Calendar::Slot& slot : slots) EXPECT_EQ(cal.Find(slot), nullptr);
  EXPECT_EQ(sim.pending(), 0u);
  sim.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(Calendar, FireMayDestroyTheOwner) {
  // A disk op's `done` deletes its Disk while another op is still queued
  // on it: the calendar must neither touch itself after the callback nor
  // leave an armed event behind (ASan/UBSan verify under the sanitize
  // preset).
  Simulation sim;
  auto disk = std::make_unique<storage::Disk>(sim, kGiB, MiBps(1));
  bool survivor_fired = false;
  disk->Read(kMiB / 4, [&] { disk.reset(); });
  disk->Read(kMiB, [&] { survivor_fired = true; });
  sim.RunAll();
  EXPECT_EQ(disk, nullptr);
  EXPECT_FALSE(survivor_fired);
  EXPECT_EQ(sim.pending(), 0u);

  // The bare calendar, destroyed by its owner from inside a fire.
  Calendar::Slot one, two;
  std::unique_ptr<Calendar> owner;
  owner = std::make_unique<Calendar>(sim, [&](Calendar::Key) {
    owner.reset();
  });
  owner->Set(one, 1, sim.now() + 5);
  owner->Set(two, 2, sim.now() + 6);
  owner->Arm();
  sim.RunAll();
  EXPECT_EQ(owner, nullptr);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Calendar, SameTickFlowCompletionsFireInIdOrder) {
  // Eight equal flows out of one 8 MiB/s NIC get 1 MiB/s each and finish
  // their 1 MiB on the same tick; they must complete in ascending flow id,
  // not in hash-table order.
  Simulation sim;
  net::FlowNetworkConfig config;
  config.wan_flow_cap = 0;
  net::FlowNetwork net(sim, config);
  const net::SiteId site = net.AddSite(Gbps(10));
  const net::NodeId src = net.AddNode(site, MiBps(8));
  std::vector<net::FlowId> ids;
  std::vector<net::FlowId> done_order;
  std::vector<SimTime> done_at;
  for (int i = 0; i < 8; ++i) {
    const net::NodeId dst = net.AddNode(site, MiBps(8));
    auto slot = std::make_shared<net::FlowId>(0);
    *slot = net.StartFlow(src, dst, kMiB, [&, slot](bool ok) {
      EXPECT_TRUE(ok);
      done_order.push_back(*slot);
      done_at.push_back(sim.now());
    });
    ids.push_back(*slot);
  }
  sim.RunAll();
  EXPECT_EQ(done_order, ids);
  ASSERT_EQ(done_at.size(), 8u);
  EXPECT_EQ(std::count(done_at.begin(), done_at.end(), done_at.front()), 8);
}

TEST(Calendar, SameTickDiskOpsFireInIdOrder) {
  Simulation sim;
  storage::Disk disk(sim, kGiB, MiBps(8));
  std::vector<storage::FairQueue::OpId> ids;
  std::vector<storage::FairQueue::OpId> done_order;
  std::vector<SimTime> done_at;
  for (int i = 0; i < 8; ++i) {
    auto slot = std::make_shared<storage::FairQueue::OpId>(0);
    *slot = disk.Read(kMiB, [&, slot] {
      done_order.push_back(*slot);
      done_at.push_back(sim.now());
    });
    ids.push_back(*slot);
  }
  sim.RunAll();
  EXPECT_EQ(done_order, ids);
  ASSERT_EQ(done_at.size(), 8u);
  EXPECT_EQ(std::count(done_at.begin(), done_at.end(), kSecond), 8);
}

void RunChurnScript(DeadlineHarness& h) {
  // 200 keys, re-keyed and erased at random from inside plain events,
  // while other deadlines keep coming due and firing: every sift moves
  // entries that other keys' slots must follow.
  Rng rng(42);
  for (DeadlineHarness::Key k = 0; k < 200; ++k) {
    h.Due(k, rng.UniformInt(1000, 2000));
  }
  h.Commit();
  for (int round = 0; round < 20; ++round) {
    h.Plain(10 * round, round, [&h, round] {
      Rng r(static_cast<std::uint64_t>(round) + 7);
      for (int i = 0; i < 150; ++i) {
        const auto k = static_cast<DeadlineHarness::Key>(r.UniformInt(0, 199));
        if (r.UniformInt(0, 9) == 0) {
          h.Drop(k);
        } else {
          h.Due(k, h.sim().now() + r.UniformInt(0, 2000));
        }
      }
    });
  }
  h.sim().RunAll();
}

TEST(Calendar, ChurnKeepsEveryLiveDeadline) {
  DeadlineHarness per_event(false);
  DeadlineHarness calendar(true);
  RunChurnScript(per_event);
  RunChurnScript(calendar);
  // Every live deadline fired exactly once, at the key it last held, in
  // the same order and at the same times as with one event per deadline.
  EXPECT_GT(per_event.log().size(), 100u);
  EXPECT_EQ(calendar.log(), per_event.log());
  EXPECT_EQ(calendar.sim().executed(), per_event.sim().executed());
  EXPECT_LT(calendar.sim().cancelled(), per_event.sim().cancelled());
  EXPECT_TRUE(calendar.calendar().empty());
}

// ---------------------------------------------------------------------------
// Lanes: constant-delay FIFOs beside the heap, fired in ScheduleAfter order

// Plays one seeded script of schedules, cancels and bounded runs, and logs
// (now, op id) per fired event. The lane twin sends its lane operations to
// ScheduleAfterOnLane; the reference twin sends them to ScheduleAfter.
class LaneTwin {
 public:
  explicit LaneTwin(bool lanes) : lanes_(lanes) {}

  Simulation& sim() { return sim_; }
  const std::vector<std::pair<SimTime, int>>& log() const { return log_; }
  const std::vector<std::size_t>& pending_trace() const { return pending_; }

  void Run(std::uint64_t seed, int ops) {
    Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
      const std::int64_t r = rng.UniformInt(0, 99);
      if (r < 15) {
        At(sim_.now() + rng.UniformInt(-100, 5000));  // some in the past
      } else if (r < 30) {
        After(rng.UniformInt(-5, 5000));
      } else if (r < 65) {
        OnLane(kDelays[rng.UniformInt(0, 3)]);
      } else if (r < 85 && !handles_.empty()) {
        // A live, fired, cancelled or (slot reused) stale handle, mostly a
        // recent one: cancel a copy, so the kept ticket goes stale for a
        // later pick.
        const auto n = static_cast<std::int64_t>(handles_.size());
        const std::int64_t recent = std::min<std::int64_t>(n, 32);
        const std::int64_t pick = r < 75
                                      ? n - 1 - rng.UniformInt(0, recent - 1)
                                      : rng.UniformInt(0, n - 1);
        EventHandle copy = handles_[static_cast<std::size_t>(pick)];
        sim_.Cancel(copy);
      } else {
        sim_.RunUntil(sim_.now() + rng.UniformInt(0, 3000));
      }
      pending_.push_back(sim_.pending());
    }
    sim_.RunAll();
  }

 private:
  static constexpr SimDuration kDelays[] = {0, 7, 40, 3000};

  void At(SimTime t) {
    const int id = NextId();
    handles_.push_back(sim_.ScheduleAt(t, Fire(id)));
  }
  void After(SimDuration delay) {
    const int id = NextId();
    handles_.push_back(sim_.ScheduleAfter(delay, Fire(id)));
  }
  void OnLane(SimDuration delay) {
    const int id = NextId();
    handles_.push_back(lanes_ ? sim_.ScheduleAfterOnLane(delay, Fire(id))
                              : sim_.ScheduleAfter(delay, Fire(id)));
  }
  int NextId() { return static_cast<int>(handles_.size()); }

  // Every third event schedules a follow-up from inside its callback, on a
  // lane or on the heap by its id.
  Simulation::Callback Fire(int id) {
    return [this, id] {
      log_.emplace_back(sim_.now(), id);
      if (id % 3 != 0) return;
      if (id % 2 == 0) {
        OnLane(kDelays[static_cast<std::size_t>(id / 3) % 4]);
      } else {
        After(id % 11);
      }
    };
  }

  bool lanes_;
  Simulation sim_;
  std::vector<EventHandle> handles_;  // by op id
  std::vector<std::pair<SimTime, int>> log_;
  std::vector<std::size_t> pending_;  // after each script op
};

TEST(Lanes, TwinRunFiresEveryEventAtItsScheduleAfterPosition) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    LaneTwin heap(false);
    LaneTwin lanes(true);
    heap.Run(seed, 2500);
    lanes.Run(seed, 2500);
    EXPECT_GT(heap.log().size(), 1500u) << "seed " << seed;
    EXPECT_EQ(lanes.log(), heap.log()) << "seed " << seed;
    EXPECT_EQ(lanes.pending_trace(), heap.pending_trace()) << "seed " << seed;
    EXPECT_EQ(lanes.sim().executed(), heap.sim().executed());
    EXPECT_EQ(lanes.sim().cancelled(), heap.sim().cancelled());
    EXPECT_GT(heap.sim().cancelled(), 40u);
    EXPECT_EQ(lanes.sim().pending(), 0u);
    EXPECT_EQ(lanes.sim().queued(), 0u);
  }
}

TEST(Lanes, SeventeenthDelayFallsBackToTheHeapInOrder) {
  Simulation sim;
  std::vector<int> order;
  // Sixteen delays take the lanes; the 17th (delay 84) goes to the heap.
  for (int i = 0; i < 17; ++i) {
    sim.ScheduleAfterOnLane(100 - i, [&order, i] { order.push_back(i); });
  }
  // Same-tick peers of the heap-held delay, before and after it in seq.
  sim.ScheduleAt(84, [&order] { order.push_back(17); });
  sim.ScheduleAfterOnLane(84, [&order] { order.push_back(18); });
  sim.ScheduleAfterOnLane(85, [&order] { order.push_back(19); });
  // Only the heap compacts: churn on a lane delay never compacts, churn
  // on the 17th delay does.
  std::vector<EventHandle> churn;
  for (int i = 0; i < 200; ++i) {
    churn.push_back(sim.ScheduleAfterOnLane(100, [] {}));
  }
  for (EventHandle& h : churn) sim.Cancel(h);
  EXPECT_EQ(sim.compactions(), 0u);
  churn.clear();
  for (int i = 0; i < 200; ++i) {
    churn.push_back(sim.ScheduleAfterOnLane(84, [] {}));
  }
  for (EventHandle& h : churn) sim.Cancel(h);
  EXPECT_GT(sim.compactions(), 0u);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{16, 17, 18, 15, 19, 14, 13, 12, 11, 10,
                                     9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(sim.executed(), 20u);
  // Fired and cancelled lane events left the heap's live count exact:
  // cancelling fewer than half of 100 heap events does not compact.
  const std::uint64_t compactions = sim.compactions();
  churn.clear();
  for (int i = 0; i < 100; ++i) churn.push_back(sim.ScheduleAfter(5, [] {}));
  for (int i = 0; i < 40; ++i) sim.Cancel(churn[static_cast<std::size_t>(i)]);
  EXPECT_EQ(sim.compactions(), compactions);
}

TEST(Lanes, CancelReArmLoopKeepsQueueBounded) {
  Simulation sim;
  EventHandle timeout;
  std::size_t peak = 0;
  // The heartbeat pattern on one lane, behind a stream of live events on
  // the same lane (deliveries), so the stale entries sit behind live heads
  // and only leave as those fire: the lane holds what was scheduled within
  // one delay of now.
  constexpr SimDuration kDelay = 10 * kMinute;
  constexpr SimDuration kPeriod = 30 * kSecond;
  for (int i = 0; i < 20000; ++i) {
    sim.Cancel(timeout);
    timeout = sim.ScheduleAfterOnLane(kDelay, [] {});
    sim.ScheduleAfterOnLane(kDelay, [] {});
    sim.RunUntil(sim.now() + kPeriod);
    peak = std::max(peak, sim.queued());
  }
  EXPECT_LE(peak, static_cast<std::size_t>(2 * (kDelay / kPeriod) + 2));
  EXPECT_EQ(sim.compactions(), 0u);
  sim.RunAll();
  EXPECT_EQ(sim.queued(), 0u);
  EXPECT_EQ(sim.executed(), 20000u + 1);
}

TEST(Lanes, CancelDestroysLaneCallbackImmediately) {
  Simulation sim;
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> observer = payload;
  sim.ScheduleAfterOnLane(kHour, [] {});  // a live head ahead of it
  auto handle = sim.ScheduleAfterOnLane(kHour, [payload] { (void)*payload; });
  payload.reset();
  EXPECT_FALSE(observer.expired());
  sim.Cancel(handle);
  EXPECT_TRUE(observer.expired());
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.queued(), 2u);  // its stale entry waits behind the head
}

TEST(Lanes, CalendarDeadlineInterleavesWithLaneEventsInSeqOrder) {
  Simulation sim;
  std::vector<int> order;
  Calendar calendar(sim, [&order](Calendar::Key key) {
    order.push_back(static_cast<int>(key));
  });
  Calendar::Slot slot;
  const auto log = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };
  sim.ScheduleAfterOnLane(100, log(1));
  calendar.Set(slot, 2, 100);  // reserves its seq here, between 1 and 3
  sim.ScheduleAfterOnLane(100, log(3));
  sim.ScheduleAt(100, log(4));
  calendar.Arm();  // armed after 3 and 4, still fires at the reserved seq
  sim.ScheduleAfterOnLane(100, log(5));
  // Another lane's event at the same tick, scheduled last.
  sim.ScheduleAt(50, [&sim, log] { sim.ScheduleAfterOnLane(50, log(6)); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(calendar.empty());
}

}  // namespace
}  // namespace hogsim::sim
