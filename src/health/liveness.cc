#include "src/health/liveness.h"

#include <algorithm>
#include <cassert>

#include "src/util/rng.h"

namespace hogsim::health {

Liveness::Liveness(sim::Simulation& sim, const std::string& detector,
                   SimDuration expiry, const LivenessNames& names,
                   std::function<void(DaemonId)> on_overdue)
    : sim_(sim),
      names_(names),
      detector_(CreateDetector(detector, expiry)),
      period_(std::max<SimDuration>(kSecond, expiry / 6)),
      on_overdue_(std::move(on_overdue)),
      live_gauge_(sim.obs().metrics().GetGauge(names.live_gauge)),
      declared_counter_(sim.obs().metrics().GetCounter(names.declared_counter)),
      latency_(sim.obs().metrics().GetHistogram(names.latency_histogram)) {}

void Liveness::Start() {
  monitor_.Start(sim_, period_, [this] { Check(); });
}

void Liveness::Register(DaemonId id) {
  assert(id == daemons_.size());
  daemons_.push_back({});
  // Registration counts as the first heartbeat of the cadence history.
  Heartbeat(id);
}

bool Liveness::Heartbeat(DaemonId id) {
  Daemon& daemon = daemons_[id];
  detector_->OnHeartbeat(id, sim_.now());
  const bool revived = !daemon.alive;
  if (revived) {
    daemon.alive = true;
    ++live_;
    PublishLive();
  }
  Arm(id);
  return revived;
}

bool Liveness::Readmit(DaemonId id) {
  detector_->Forget(id);
  return Heartbeat(id);
}

bool Liveness::Declare(DaemonId id) {
  Daemon& daemon = daemons_[id];
  if (!daemon.alive) return false;
  daemon.alive = false;
  // Deliberately NOT detector_->Forget(id): a wrongly declared (gray,
  // alive) daemon keeps its valid cadence history, and the reviving
  // heartbeat's long gap widens an adaptive budget. Dead daemons never
  // heartbeat again and replacements register under fresh ids.
  --live_;
  declared_counter_.Add();
  // The silence the master sat through: what the 30 s recheck targets.
  latency_.Observe(ToSeconds(sim_.now() - detector_->LastHeartbeat(id)));
  sim_.obs().tracer().EmitInstant(names_.category, names_.declared_instant,
                                  sim_.now(), id);
  PublishLive();
  return true;
}

void Liveness::Arm(DaemonId id) {
  Daemon& daemon = daemons_[id];
  if (daemon.armed || !daemon.alive) return;
  daemon.armed = true;
  heap_.push_back({detector_->Deadline(id), id});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void Liveness::Check() {
  const SimTime now = sim_.now();
  std::vector<DaemonId> due;
  // `deadline < now` is the fixed timeout's strict `now - last > expiry`;
  // adaptive detectors just move the deadline.
  while (!heap_.empty() && heap_.front().deadline < now) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const DaemonId id = heap_.back().id;
    heap_.pop_back();
    daemons_[id].armed = false;
    if (!daemons_[id].alive) continue;  // the reviving heartbeat re-arms
    if (detector_->Deadline(id) < now) {
      due.push_back(id);
    } else {
      Arm(id);  // heartbeated since: re-arm at the true deadline
    }
  }
  std::sort(due.begin(), due.end());
  for (DaemonId id : due) on_overdue_(id);
}

void Liveness::PublishLive() {
  live_gauge_.Set(live_);
  sim_.obs().tracer().EmitCounter(names_.category, names_.live_track,
                                  sim_.now(), live_);
}

SimDuration HeartbeatDelay(SimDuration latency, std::uint64_t node,
                           std::uint64_t seq, SimDuration jitter) {
  if (jitter <= 0) return latency;
  const std::uint64_t h = MixHash((node << 32) | (seq / 16));
  return latency +
         static_cast<SimDuration>(h % static_cast<std::uint64_t>(jitter + 1));
}

void SendHeartbeat(sim::Simulation& sim, SimDuration latency,
                   std::uint64_t node, std::uint64_t seq, SimDuration jitter,
                   sim::Simulation::Callback deliver) {
  if (jitter <= 0) {
    sim.ScheduleAfterOnLane(latency, std::move(deliver));
  } else {
    sim.ScheduleAfter(HeartbeatDelay(latency, node, seq, jitter),
                      std::move(deliver));
  }
}

}  // namespace hogsim::health
