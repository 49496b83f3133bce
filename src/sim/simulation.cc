#include "src/sim/simulation.h"

#include <algorithm>
#include <cassert>

namespace hogsim::sim {

Simulation::Simulation() {
  // The sim.* metrics are snapshot-time probes over counters the queue
  // already maintains — the Step() hot loop carries no instrumentation.
  // Probes capture `this`; self-registration is safe because the registry
  // is a member, destroyed in the same destructor that could last use it.
  obs::MetricsRegistry& m = obs_.metrics();
  m.RegisterProbe("sim.events.fired",
                  [this] { return static_cast<double>(executed_); });
  m.RegisterProbe("sim.events.cancelled",
                  [this] { return static_cast<double>(cancelled_); });
  m.RegisterProbe("sim.queue.depth",
                  [this] { return static_cast<double>(live_); });
  m.RegisterProbe("sim.queue.entries",
                  [this] { return static_cast<double>(queued()); });
  m.RegisterProbe("sim.queue.compactions",
                  [this] { return static_cast<double>(compactions_); });
  if (obs::RunCapture* capture = obs::RunCapture::Current()) {
    if (capture->want_trace()) obs_.tracer().set_enabled(true);
  }
}

Simulation::~Simulation() {
  if (obs::RunCapture* capture = obs::RunCapture::Current()) {
    capture->Deliver(obs_);
  }
}

EventHandle Simulation::ScheduleAt(SimTime t, Callback cb) {
  if (t < now_) t = now_;
  return ScheduleAtSeq(t, next_seq_++, std::move(cb));
}

std::uint32_t Simulation::TakeSlot(Callback cb, bool on_lane) {
  assert(cb);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].cb = std::move(cb);
  slots_[slot].on_lane = on_lane;
  ++live_;
  return slot;
}

EventHandle Simulation::ScheduleAtSeq(SimTime t, std::uint64_t seq,
                                      Callback cb) {
  assert(t >= now_ && seq < next_seq_);
  const std::uint32_t slot = TakeSlot(std::move(cb), /*on_lane=*/false);
  const std::uint32_t gen = slots_[slot].gen;
  heap_.push_back(Entry{t, seq, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  return EventHandle(this, slot, gen);
}

EventHandle Simulation::ScheduleAfter(SimDuration delay, Callback cb) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(cb));
}

EventHandle Simulation::ScheduleAfterOnLane(SimDuration delay, Callback cb) {
  if (delay < 0) delay = 0;
  auto lane = std::find_if(lanes_.begin(), lanes_.end(),
                           [delay](const Lane& l) { return l.delay == delay; });
  if (lane == lanes_.end()) {
    if (lanes_.size() == kMaxLanes) return ScheduleAfter(delay, std::move(cb));
    lane = lanes_.insert(lanes_.end(), Lane{delay, {}});
  }
  const std::uint32_t slot = TakeSlot(std::move(cb), /*on_lane=*/true);
  const std::uint32_t gen = slots_[slot].gen;
  // Appending keeps the lane sorted: now_ + delay never decreases and the
  // seq always grows.
  lane->fifo.push_back(Entry{now_ + delay, next_seq_++, slot, gen});
  ++lane_live_;
  return EventHandle(this, slot, gen);
}

std::size_t Simulation::queued() const {
  std::size_t n = heap_.size();
  for (const Lane& lane : lanes_) n += lane.fifo.size();
  return n;
}

void Simulation::ReleaseSlot(std::uint32_t slot) {
  ++slots_[slot].gen;   // invalidates the queue entry and all handles
  slots_[slot].cb = nullptr;
  free_.push_back(slot);
}

void Simulation::Cancel(EventHandle& handle) {
  if (handle.sim_ == this && IsPending(handle.slot_, handle.gen_)) {
    const bool on_lane = slots_[handle.slot_].on_lane;
    ReleaseSlot(handle.slot_);
    assert(live_ > 0);
    --live_;
    ++cancelled_;
    if (on_lane) {
      --lane_live_;
    } else {
      // heap_.size() - (live_ - lane_live_) is the heap's stale-entry
      // count: every live heap event has exactly one heap entry.
      const std::size_t heap_live = live_ - lane_live_;
      if (heap_.size() >= kCompactMinEntries &&
          heap_.size() - heap_live > heap_.size() / 2) {
        Compact();
      }
    }
  }
  handle.sim_ = nullptr;
}

void Simulation::Compact() {
  std::erase_if(heap_, [this](const Entry& e) { return Stale(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later);
  ++compactions_;
}

bool Simulation::Step(SimTime until) {
  while (true) {
    // The least (time, seq) among the heap top and the lane heads. An
    // entry is checked for staleness only once it is the least; a stale
    // one is dropped regardless of timestamp.
    const Entry* next = heap_.empty() ? nullptr : &heap_.front();
    Lane* from = nullptr;  // the lane `next` heads, if any
    for (Lane& lane : lanes_) {
      if (!lane.fifo.empty() &&
          (next == nullptr || Later(*next, lane.fifo.front()))) {
        next = &lane.fifo.front();
        from = &lane;
      }
    }
    if (next == nullptr) return false;
    const bool stale = Stale(*next);
    if (!stale && next->time > until) return false;
    const Entry entry = *next;
    if (from != nullptr) {
      from->fifo.pop_front();
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      heap_.pop_back();
    }
    if (stale) continue;
    if (from != nullptr) --lane_live_;
    // Move the callback out and free the slot before executing, so the
    // callback can freely schedule/cancel (including reusing this slot).
    Callback cb = std::move(slots_[entry.slot].cb);
    ReleaseSlot(entry.slot);
    --live_;
    assert(entry.time >= now_);
    now_ = entry.time;
    ++executed_;
    cb();
    return true;
  }
}

void Simulation::RunUntil(SimTime until) {
  while (Step(until)) {
  }
  if (now_ < until) now_ = until;
}

void Simulation::RunAll(SimTime hard_limit) {
  limit_reached_ = false;
  while (Step(hard_limit)) {
  }
  limit_reached_ = live_ > 0;
}

void PeriodicTimer::Start(Simulation& sim, SimDuration period,
                          std::function<void()> on_tick) {
  assert(period > 0 && on_tick);
  Stop();
  sim_ = &sim;
  period_ = period;
  on_tick_ = std::move(on_tick);
  running_ = true;
  Arm();
}

void PeriodicTimer::Stop() {
  if (sim_ != nullptr) sim_->Cancel(pending_);
  sim_ = nullptr;
  period_ = 0;
  on_tick_ = nullptr;
  running_ = false;
}

void PeriodicTimer::Arm() {
  pending_ = sim_->ScheduleAfterOnLane(period_, [this] {
    if (!running_) return;
    // Re-arm before ticking so a callback that calls Stop() wins.
    Arm();
    // Execute from a local so Stop()/Start() inside the tick can't destroy
    // the std::function currently running.
    auto tick = std::move(on_tick_);
    tick();
    if (running_ && !on_tick_) on_tick_ = std::move(tick);
  });
}

}  // namespace hogsim::sim
