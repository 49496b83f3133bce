// Keyed completion calendar: many deadlines behind one simulation event.
//
// A resource that shares its capacity among concurrent operations (the
// network's flows, a disk's ops) re-rates them whenever one arrives or
// leaves. With one simulation event per operation, every re-rate cancels
// and reschedules each moved deadline: n^2 cancellations over a spin-up
// burst on one hot NIC. A Calendar keeps the deadlines in its own indexed
// min-heap and holds one simulation event, armed at the earliest
// (time, seq) key; moving a deadline sifts its one entry in place, and the
// shared event is cancelled only when the earliest key changes.
//
// Indexing: each owner record (a flow, a disk op) embeds a Calendar::Slot,
// which holds its entry's heap position; each entry points back at its
// slot. Set, Erase and Find go straight to the entry, and the heap holds
// exactly one entry per pending deadline.
//
// Exactness: Set() reserves the deadline's seq from the Simulation
// (TakeSeq) at the moment a per-operation ScheduleAt would have drawn it,
// and Arm() schedules the shared event with that seq (ScheduleAtSeq). Each
// deadline therefore fires at exactly the queue position, and costs
// exactly the one executed event, that its own event would have.
//
// Owner contract: mutate with Set/Erase, then call Arm() once before
// control returns to the event loop. A scheduled Slot must neither move
// nor die: keep records in a node-based container and Erase (or Clear)
// before destroying one. The fire callback runs after its entry is
// removed; it may mutate the calendar and may destroy the calendar's
// owner (a disk op's `done` deleting its Disk).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/sim/simulation.h"
#include "src/util/units.h"

namespace hogsim::sim {

/// A calendar key's position in the event order: fires at `time`, after
/// every event at `time` whose seq is smaller.
struct Deadline {
  SimTime time = 0;
  std::uint64_t seq = 0;
  friend bool operator==(const Deadline&, const Deadline&) = default;
};

class Calendar {
 public:
  using Key = std::uint64_t;
  using FireFn = std::function<void(Key)>;

  /// An owner record's handle on its deadline: the heap position of its
  /// entry while one is pending. Pinned in place (neither copyable nor
  /// movable), since the calendar holds its address.
  class Slot {
   public:
    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

   private:
    friend class Calendar;
    static constexpr std::uint32_t kNone =
        std::numeric_limits<std::uint32_t>::max();
    std::uint32_t pos_ = kNone;
  };

  /// `fire` runs, from the one armed event, with the key of each deadline
  /// that comes due. The Simulation must outlive the calendar.
  Calendar(Simulation& sim, FireFn fire);
  /// Cancels the armed event, so no deadline fires into a dead owner.
  /// Touches no slot: the owner's records may already be gone.
  ~Calendar();
  Calendar(const Calendar&) = delete;
  Calendar& operator=(const Calendar&) = delete;

  /// Gives `slot` the deadline `t` (clamped to now) under `key`, replacing
  /// any earlier one, with its same-tick order reserved now. Takes effect
  /// at Arm().
  void Set(Slot& slot, Key key, SimTime t);

  /// Drops `slot`'s deadline; no-op when it has none. Takes effect at
  /// Arm().
  void Erase(Slot& slot);

  /// Drops every deadline and the armed event.
  void Clear();

  /// Points the one simulation event at the earliest deadline. Cancels and
  /// reschedules only when that deadline changed since the last Arm();
  /// schedules nothing when the calendar is empty.
  void Arm();

  /// `slot`'s pending deadline, or nullptr when it has none.
  const Deadline* Find(const Slot& slot) const {
    return slot.pos_ == Slot::kNone ? nullptr : &heap_[slot.pos_].due;
  }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  struct Entry {
    Deadline due;
    Key key;
    Slot* slot;
  };
  static bool Earlier(const Deadline& a, const Deadline& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Writes `e` to heap_[pos] and tells its slot where it lives.
  void Place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    e.slot->pos_ = static_cast<std::uint32_t>(pos);
  }
  /// Fill the hole at `pos` with `e`, moving it toward the root or the
  /// leaves until the heap order holds.
  void SiftUp(std::size_t pos, const Entry& e);
  void SiftDown(std::size_t pos, const Entry& e);
  /// Removes heap_[pos] and unschedules its slot.
  void RemoveAt(std::size_t pos);
  void Fire();

  Simulation& sim_;
  FireFn fire_;
  std::vector<Entry> heap_;  // binary min-heap on `due`
  EventHandle armed_;
  Deadline armed_at_;  // the armed event's key while armed_ is pending
  bool* destroyed_ = nullptr;  // set while fire_ runs; see ~Calendar
};

}  // namespace hogsim::sim
