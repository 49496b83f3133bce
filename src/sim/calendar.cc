#include "src/sim/calendar.h"

#include <cassert>
#include <utility>

namespace hogsim::sim {

Calendar::Calendar(Simulation& sim, FireFn fire)
    : sim_(sim), fire_(std::move(fire)) {
  assert(fire_);
}

Calendar::~Calendar() {
  if (destroyed_ != nullptr) *destroyed_ = true;
  sim_.Cancel(armed_);
}

void Calendar::Set(Slot& slot, Key key, SimTime t) {
  if (t < sim_.now()) t = sim_.now();
  const Entry e{Deadline{t, sim_.TakeSeq()}, key, &slot};
  if (slot.pos_ == Slot::kNone) {
    heap_.push_back(e);
    SiftUp(heap_.size() - 1, e);
    return;
  }
  // The fresh seq is the largest in the heap, so the entry moves toward
  // the root only when its time moved earlier.
  const std::size_t pos = slot.pos_;
  if (t < heap_[pos].due.time) {
    SiftUp(pos, e);
  } else {
    SiftDown(pos, e);
  }
}

void Calendar::Erase(Slot& slot) {
  if (slot.pos_ != Slot::kNone) RemoveAt(slot.pos_);
}

void Calendar::Clear() {
  for (const Entry& e : heap_) e.slot->pos_ = Slot::kNone;
  heap_.clear();
  sim_.Cancel(armed_);
}

void Calendar::SiftUp(std::size_t pos, const Entry& e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!Earlier(e.due, heap_[parent].due)) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void Calendar::SiftDown(std::size_t pos, const Entry& e) {
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && Earlier(heap_[child + 1].due, heap_[child].due)) {
      ++child;
    }
    if (!Earlier(heap_[child].due, e.due)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, e);
}

void Calendar::RemoveAt(std::size_t pos) {
  heap_[pos].slot->pos_ = Slot::kNone;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // it was the last entry
  if (pos > 0 && Earlier(last.due, heap_[(pos - 1) / 2].due)) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

void Calendar::Arm() {
  if (heap_.empty()) {
    sim_.Cancel(armed_);
    return;
  }
  const Deadline top = heap_.front().due;
  if (armed_.pending() && armed_at_ == top) return;
  sim_.Cancel(armed_);
  armed_at_ = top;
  armed_ = sim_.ScheduleAtSeq(top.time, top.seq, [this] { Fire(); });
}

void Calendar::Fire() {
  if (heap_.empty() || heap_.front().due != armed_at_) {
    // An owner mutated without re-arming: fire nothing early, re-arm.
    Arm();
    return;
  }
  const Key key = heap_.front().key;
  RemoveAt(0);
  bool destroyed = false;
  destroyed_ = &destroyed;
  fire_(key);
  if (destroyed) return;  // the callback destroyed this calendar's owner
  destroyed_ = nullptr;
  Arm();
}

}  // namespace hogsim::sim
