// Keyed completion calendar: many deadlines behind one simulation event.
//
// A resource that shares its capacity among concurrent operations (the
// network's flows, a disk's ops) re-rates them whenever one arrives or
// leaves. With one simulation event per operation, every re-rate cancels
// and reschedules each moved deadline: n^2 cancellations over a spin-up
// burst on one hot NIC. A Calendar keeps the deadlines in its own lazy
// min-heap and holds one simulation event, armed at the earliest
// (time, seq) key; moving a deadline is a heap push, and the shared event
// is cancelled only when the earliest key changes.
//
// Exactness: Set() reserves the deadline's seq from the Simulation
// (TakeSeq) at the moment a per-operation ScheduleAt would have drawn it,
// and Arm() schedules the shared event with that seq (ScheduleAtSeq). Each
// deadline therefore fires at exactly the queue position, and costs
// exactly the one executed event, that its own event would have.
//
// Owner contract: mutate with Set/Erase, then call Arm() once before
// control returns to the event loop. The fire callback runs after its key
// is removed; it may mutate the calendar and may destroy the calendar's
// owner (a disk op's `done` deleting its Disk).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
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

  /// `fire` runs, from the one armed event, for each deadline that comes
  /// due. The Simulation must outlive the calendar.
  Calendar(Simulation& sim, FireFn fire);
  /// Cancels the armed event, so no deadline fires into a dead owner.
  ~Calendar();
  Calendar(const Calendar&) = delete;
  Calendar& operator=(const Calendar&) = delete;

  /// Gives `key` the deadline `t` (clamped to now), replacing any earlier
  /// one, with its same-tick order reserved now. Takes effect at Arm().
  void Set(Key key, SimTime t);

  /// Drops `key`'s deadline; no-op when it has none. Takes effect at Arm().
  void Erase(Key key);

  /// Drops every deadline and the armed event.
  void Clear();

  /// Points the one simulation event at the earliest deadline. Cancels and
  /// reschedules only when that deadline changed since the last Arm();
  /// schedules nothing when the calendar is empty.
  void Arm();

  /// `key`'s pending deadline, or nullptr when it has none.
  const Deadline* Find(Key key) const {
    auto it = due_.find(key);
    return it == due_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return due_.size(); }
  bool empty() const { return due_.empty(); }

  /// Heap entries, stale ones included; compaction keeps this below about
  /// 2 x size() plus a small floor.
  std::size_t entries() const { return heap_.size(); }

 private:
  // Heap entries are PODs; an entry is live while `seq` is still its
  // key's current deadline (seqs are unique per Simulation), so re-keying
  // or erasing leaves the old entry stale instead of searching for it.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Key key;
  };
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  bool Live(const Entry& e) const {
    auto it = due_.find(e.key);
    return it != due_.end() && it->second.seq == e.seq;
  }

  // Same floor as the Simulation's own queue compaction.
  static constexpr std::size_t kCompactMinEntries = 64;

  void DropStaleTop();
  void MaybeCompact();
  void Fire();

  Simulation& sim_;
  FireFn fire_;
  std::unordered_map<Key, Deadline> due_;  // lookups only, never iterated
  std::vector<Entry> heap_;
  EventHandle armed_;
  Deadline armed_at_;  // the armed event's key while armed_ is pending
  bool* destroyed_ = nullptr;  // set while fire_ runs; see ~Calendar
};

}  // namespace hogsim::sim
