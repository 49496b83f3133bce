// Discrete-event simulation core.
//
// A Simulation owns the virtual clock and the pending-event queue. All other
// subsystems (network flows, disks, daemons, schedulers) are driven purely
// by callbacks scheduled here, which makes every run single-threaded and
// deterministic: two events at the same timestamp fire in scheduling order.
//
// Queue representation: callbacks live in a pooled slot arena; the queue
// itself holds only trivially-copyable {time, seq, slot, generation}
// entries, so scheduling an event performs no allocation once the pool is
// warm and the queue moves 24-byte PODs instead of std::functions. Entries
// sit either in a binary min-heap or in a constant-delay lane: a FIFO per
// distinct ScheduleAfterOnLane delay (at most kMaxLanes of them). Since
// `now` never decreases and seq always grows, entries appended with one
// delay arrive in ascending (time, seq) order, so each lane is sorted by
// construction and Step pops the least key among the heap top and the
// lane heads — every event fires at exactly the (time, seq) position
// ScheduleAfter would have given it, without a heap sift. Heartbeats and
// every PeriodicTimer, nearly all of a large run's events, ride lanes.
// Cancellation is lazy (the entry goes stale and is skipped on pop), but a
// cancelled event's callback is destroyed immediately and the heap is
// compacted whenever its stale entries outnumber its live ones, so
// cancel/re-arm loops hold the queue at O(live events) instead of growing
// with simulated time. A lane needs no compaction: it holds only events
// scheduled within one of its delays of now.
//
// Units: all times in this header are sim-time microsecond ticks (SimTime /
// SimDuration, src/util/units.h) — never wall-clock, never seconds.
// Thread-safety: none. A Simulation and everything scheduled on it belong
// to one thread; parallel sweeps run whole Simulations on separate threads
// (src/exp/sweep.h).
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/units.h"

namespace hogsim::sim {

class Simulation;

/// Opaque, copyable handle to a scheduled event; used to cancel it.
/// A default-constructed handle refers to nothing and is safe to cancel.
/// A handle is a {slot, generation} ticket into the owning Simulation's
/// event arena, so it must not outlive the Simulation it came from.
class EventHandle {
 public:
  EventHandle() = default;

  /// True while the event is still pending (not fired, not cancelled).
  bool pending() const;

 private:
  friend class Simulation;
  EventHandle(const Simulation* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}
  const Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulation {
 public:
  using Callback = std::function<void()>;

  /// Registers the sim.* snapshot probes and, when an obs::RunCapture with
  /// want_trace() is installed on this thread, enables the tracer.
  Simulation();
  /// Delivers the metrics snapshot / trace export to the innermost
  /// obs::RunCapture on this thread, if one is installed (first Simulation
  /// destroyed wins; see src/obs/obs.h).
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time, in sim-time ticks (µs).
  SimTime now() const { return now_; }

  /// This simulation's observability bundle (metrics registry + tracer).
  /// Subsystems cache instrument handles from obs().metrics() at
  /// construction and emit trace records through obs().tracer(). The
  /// sim.* metrics are snapshot-time probes over the stats surface below,
  /// so the event loop itself carries zero instrumentation cost.
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  /// Schedules `cb` at absolute time `t`; times in the past are clamped to
  /// now (they fire next, after already-queued events at `now`). Returns a
  /// handle that can cancel the event before it fires.
  EventHandle ScheduleAt(SimTime t, Callback cb);

  /// Schedules `cb` after `delay` ticks (negative delays clamp to 0).
  EventHandle ScheduleAfter(SimDuration delay, Callback cb);

  /// ScheduleAfter with the same (time, seq) key, queued on the FIFO lane
  /// of `delay` instead of the heap. For delays a caller reuses constantly
  /// (timer periods, nominal heartbeat latency): a lane push and pop cost
  /// O(1). Once kMaxLanes delays hold lanes, a new delay goes to the heap.
  EventHandle ScheduleAfterOnLane(SimDuration delay, Callback cb);

  /// Reserves the same-tick order a ScheduleAt made right now would draw,
  /// without scheduling anything. Pair it with ScheduleAtSeq to place an
  /// event later at exactly that queue position (see sim::Calendar).
  std::uint64_t TakeSeq() { return next_seq_++; }

  /// Schedules `cb` at (`t`, `seq`) for a `seq` from TakeSeq(): among
  /// events at `t` it fires exactly where a ScheduleAt(t) made at the
  /// moment of the reservation would have. `t` must not be in the past.
  EventHandle ScheduleAtSeq(SimTime t, std::uint64_t seq, Callback cb);

  /// Cancels a pending event; no-op if it already fired, was already
  /// cancelled, or the handle is empty. The callback (and anything it
  /// captured) is destroyed immediately, not when its timestamp is reached.
  void Cancel(EventHandle& handle);

  /// Processes every event with time <= `until`, then advances the clock to
  /// `until` even if the queue drained earlier.
  void RunUntil(SimTime until);

  /// Processes all events. `hard_limit` guards against runaway schedules:
  /// execution stops (and LimitReached() returns true) if work remains past
  /// the limit.
  void RunAll(SimTime hard_limit = kHour * 24 * 365);

  /// True if the last RunAll stopped at its hard limit with work pending.
  bool LimitReached() const { return limit_reached_; }

  // --- Stats surface (for benches, sweeps, and regression tests) ---

  /// Number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Number of live (uncancelled, unfired) events in the queue.
  std::size_t pending() const { return live_; }

  /// Raw entry count of the heap and the lanes, including stale entries of
  /// cancelled events not dropped yet. Compaction bounds the heap's share
  /// at < 2x its live events plus a small floor; a lane holds at most the
  /// events scheduled on it within one of its delays.
  std::size_t queued() const;

  /// Number of events cancelled so far.
  std::uint64_t cancelled() const { return cancelled_; }

  /// Number of heap compactions performed so far (lanes never compact).
  std::uint64_t compactions() const { return compactions_; }

  /// True if the {slot, generation} ticket still names a pending event.
  bool IsPending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }

 private:
  // Callback storage, reused across events. `gen` is bumped every time the
  // slot is released (fired or cancelled), which atomically invalidates the
  // matching queue entry and every outstanding handle.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    bool on_lane = false;  // its entry sits in a lane, not the heap
  };
  // Queue entries are trivially copyable; the callback stays in the arena.
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-breaker: FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;
  };
  // Min-heap ordering (std::*_heap builds a max-heap, so invert).
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  // One constant delay's FIFO; ascending (time, seq) by construction.
  struct Lane {
    SimDuration delay;
    std::deque<Entry> fifo;
  };

  // Don't bother compacting tiny heaps; below this the stale entries cost
  // less than the make_heap.
  static constexpr std::size_t kCompactMinEntries = 64;
  // Step scans every lane head, so the lane count stays small.
  static constexpr std::size_t kMaxLanes = 16;

  bool Stale(const Entry& e) const { return slots_[e.slot].gen != e.gen; }

  /// Stores `cb` in a free slot and counts the event live; returns the
  /// slot.
  std::uint32_t TakeSlot(Callback cb, bool on_lane);

  /// Pops and executes the earliest event; skips cancelled entries.
  /// Returns false when the queue is empty.
  bool Step(SimTime until);

  /// Bumps the slot's generation (invalidating its queue entry and all
  /// handles), destroys the callback, and returns the slot to the pool.
  void ReleaseSlot(std::uint32_t slot);

  /// Drops stale heap entries and restores the heap property.
  void Compact();

  obs::Observability obs_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t live_ = 0;
  std::size_t lane_live_ = 0;  // the live events that sit in lanes
  bool limit_reached_ = false;
  std::vector<Entry> heap_;
  std::vector<Lane> lanes_;  // at most kMaxLanes, in order of first use
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // released slot indices
};

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->IsPending(slot_, gen_);
}

/// Repeatedly invokes a callback every `period` ticks until stopped.
/// Mirrors daemon heartbeat loops. The callback fires first after one full
/// period (not immediately), matching how Hadoop daemons report.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  ~PeriodicTimer() { Stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts ticking. If already running, restarts with the new settings.
  void Start(Simulation& sim, SimDuration period,
             std::function<void()> on_tick);

  /// Stops future ticks and detaches from the Simulation (safe even if the
  /// Simulation is destroyed afterwards); safe to call repeatedly or when
  /// never started. The timer can be Start()ed again, on any Simulation.
  void Stop();

  bool running() const { return running_; }

 private:
  void Arm();

  Simulation* sim_ = nullptr;
  SimDuration period_ = 0;
  std::function<void()> on_tick_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace hogsim::sim
