#include "src/sim/calendar.h"

#include <algorithm>
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

void Calendar::Set(Key key, SimTime t) {
  if (t < sim_.now()) t = sim_.now();
  const Deadline d{t, sim_.TakeSeq()};
  // Record the key's new deadline before anything can compact: compaction
  // keeps exactly the entries that match due_.
  due_.insert_or_assign(key, d);
  heap_.push_back(Entry{d.time, d.seq, key});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  MaybeCompact();
}

void Calendar::Erase(Key key) {
  if (due_.erase(key) > 0) MaybeCompact();
}

void Calendar::Clear() {
  due_.clear();
  heap_.clear();
  sim_.Cancel(armed_);
}

void Calendar::DropStaleTop() {
  while (!heap_.empty() && !Live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
  }
}

void Calendar::MaybeCompact() {
  // heap_.size() - due_.size() is the stale-entry count: every key with a
  // deadline has exactly one live entry.
  if (heap_.size() < kCompactMinEntries ||
      heap_.size() - due_.size() <= heap_.size() / 2) {
    return;
  }
  std::erase_if(heap_, [this](const Entry& e) { return !Live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later);
}

void Calendar::Arm() {
  DropStaleTop();
  if (heap_.empty()) {
    sim_.Cancel(armed_);
    return;
  }
  const Deadline top{heap_.front().time, heap_.front().seq};
  if (armed_.pending() && armed_at_ == top) return;
  sim_.Cancel(armed_);
  armed_at_ = top;
  armed_ = sim_.ScheduleAtSeq(top.time, top.seq, [this] { Fire(); });
}

void Calendar::Fire() {
  DropStaleTop();
  if (heap_.empty() ||
      Deadline{heap_.front().time, heap_.front().seq} != armed_at_) {
    // An owner mutated without re-arming: fire nothing early, re-arm.
    Arm();
    return;
  }
  const Key key = heap_.front().key;
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
  due_.erase(key);
  bool destroyed = false;
  destroyed_ = &destroyed;
  fire_(key);
  if (destroyed) return;  // the callback destroyed this calendar's owner
  destroyed_ = nullptr;
  Arm();
}

}  // namespace hogsim::sim
