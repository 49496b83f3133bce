// Local disk model.
//
// Each worker node owns one Disk: a capacity budget (HDFS blocks plus
// MapReduce intermediate output share it, which is what makes the paper's
// §IV.D.2 disk-overflow failure reproducible) and a bandwidth budget that
// concurrent I/O operations share evenly (single-spindle assumption).
//
// The zombie-datanode experience (§IV.D.1) is modeled through the
// `writable` flag: when a site preempts a job but the daemons escape the
// kill, the site removes the working directory — the disk stops being
// writable while the daemon processes live on.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>

#include "src/sim/calendar.h"
#include "src/sim/simulation.h"
#include "src/util/units.h"

namespace hogsim::storage {

/// A capacity-`rate` resource whose concurrent operations progress at
/// rate / n. Every op's completion deadline sits in one sim::Calendar,
/// under a slot the op carries, and re-rates walk ops in ascending id, so
/// same-tick completions fire in id order.
class FairQueue {
 public:
  using OpId = std::uint64_t;
  static constexpr OpId kInvalidOp = 0;

  FairQueue(sim::Simulation& sim, Rate rate);

  /// Starts an operation moving `bytes`; `done` fires on completion.
  OpId Submit(Bytes bytes, std::function<void()> done);

  /// Drops an operation without firing its callback. No-op on unknown ids.
  void Cancel(OpId id);

  /// Drops every pending operation without callbacks (node death: the
  /// owning tasks are being killed and clean themselves up).
  void CancelAll();

  /// Gray fault: no operation makes progress until now + `duration` (an
  /// intermittent IO freeze — the host's own workload monopolized the
  /// spindle). In-flight progress is banked first; completions resume
  /// after the thaw. Overlapping freezes extend, never shorten. Costs one
  /// comparison per advance when never used.
  void Freeze(SimDuration duration);
  SimTime frozen_until() const { return frozen_until_; }

  std::size_t active() const { return ops_.size(); }

 private:
  struct Op {
    double remaining;
    SimTime last_update;
    std::function<void()> done;
    sim::Calendar::Slot due;  // the completion deadline
  };

  void AdvanceAll();
  /// Re-keys every op's deadline at the current share, then re-arms.
  void RescheduleAll();
  void Finish(OpId id);

  sim::Simulation& sim_;
  Rate rate_;
  // Ascending id, the re-rate order; node-based, so slots stay put.
  std::map<OpId, Op> ops_;
  sim::Calendar completions_;
  OpId next_op_ = 1;
  SimTime frozen_until_ = 0;
};

class Disk {
 public:
  /// `capacity` is the space available to Hadoop on the node; `bandwidth`
  /// is the combined sequential read/write rate.
  Disk(sim::Simulation& sim, Bytes capacity, Rate bandwidth);

  // -- Capacity accounting ---------------------------------------------

  /// Reserves space; returns false (and reserves nothing) if it would
  /// exceed capacity. This is the ENOSPC path of §IV.D.2.
  [[nodiscard]] bool Reserve(Bytes bytes);

  /// Returns previously reserved space.
  void Release(Bytes bytes);

  /// Resizes the space available to Hadoop (fault injection: the host's
  /// own workload ate the scratch partition). May shrink below `used()`;
  /// existing data survives but every new Reserve fails until enough is
  /// Released. Capacity must stay >= 0.
  void SetCapacity(Bytes capacity) {
    assert(capacity >= 0);
    capacity_ = capacity;
  }

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  /// Never negative, even while over-committed after a SetCapacity shrink.
  Bytes free() const { return capacity_ > used_ ? capacity_ - used_ : 0; }

  // -- Bandwidth-shared I/O ---------------------------------------------

  /// Timed read of `bytes`; shares bandwidth with all other ops.
  FairQueue::OpId Read(Bytes bytes, std::function<void()> done);

  /// Timed write. Fails immediately (returns kInvalidOp, callback NOT
  /// invoked) when the disk is not writable — callers treat that as a task
  /// failure, mirroring a deleted working directory.
  FairQueue::OpId Write(Bytes bytes, std::function<void()> done);

  void Cancel(FairQueue::OpId id) { queue_.Cancel(id); }
  void CancelAll() { queue_.CancelAll(); }
  std::size_t active_ops() const { return queue_.active(); }

  /// Gray fault (src/fault stall-disk): freezes all IO for `duration`.
  void Stall(SimDuration duration) { queue_.Freeze(duration); }
  SimTime stalled_until() const { return queue_.frozen_until(); }

  // -- Zombie-mode support ----------------------------------------------

  /// Simulates the site deleting (or restoring) the job working directory.
  void set_writable(bool writable) { writable_ = writable; }
  bool writable() const { return writable_; }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  bool writable_ = true;
  FairQueue queue_;
};

}  // namespace hogsim::storage
