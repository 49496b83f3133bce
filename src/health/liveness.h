// The heartbeat protocol, written once for both masters.
//
// HOG learns of a dead worker only through heartbeat silence (§III.B): a
// preempted glidein sends no goodbye, so the namenode's heartbeat recheck
// and the jobtracker's tracker expiry are one rule, both lowered to 30 s.
// Liveness is the master's half of it: per daemon the alive flag and one
// entry in a lazy {deadline, id} expiry heap; the FailureDetector that
// keeps each last heartbeat and sets each deadline; the monitor tick at
// max(1 s, expiry / 6); the live and declared counts and their
// instruments. Each master owns one and keeps only its own consequences
// of a declare or a revival.
//
// A heartbeat updates the detector, never the heap. A popped entry whose
// daemon heartbeated since is re-armed at its true deadline (the sim
// core's stale-entry idiom), so a tick costs O(due + 1), not O(daemons),
// and still declares on the tick a full scan would, in ascending id.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/health/detector.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"

namespace hogsim::check {
class Auditor;
}  // namespace hogsim::check

namespace hogsim::health {

/// One master's liveness instrument names. The tracer keeps the pointers,
/// so pass string literals.
struct LivenessNames {
  const char* category;           // trace category
  const char* live_track;         // trace counter of the live count
  const char* declared_instant;   // trace instant per declare
  const char* live_gauge;         // metric: the live count
  const char* declared_counter;   // metric: declares so far
  const char* latency_histogram;  // metric: last heartbeat to declare, s
};

class Liveness {
 public:
  /// `detector` and `expiry` go to CreateDetector. Each monitor tick calls
  /// `on_overdue`, the master's declare path, for every daemon whose
  /// deadline passed; that path calls Declare().
  Liveness(sim::Simulation& sim, const std::string& detector,
           SimDuration expiry, const LivenessNames& names,
           std::function<void(DaemonId)> on_overdue);

  /// Arms the monitor tick; Stop() halts it (a master blackout).
  void Start();
  void Stop() { monitor_.Stop(); }

  /// A new daemon, alive as of now; `id` is the count registered before.
  void Register(DaemonId id);
  /// A heartbeat arrived now. True when it revived a declared-dead daemon.
  bool Heartbeat(DaemonId id);
  /// Restart re-admission of a daemon that survived the outage: forgets
  /// its cadence history (the gap is master downtime) and counts it alive
  /// as of now. True when it was declared dead.
  bool Readmit(DaemonId id);
  /// Declares `id` dead. False, changing nothing, if it already was.
  bool Declare(DaemonId id);

  bool alive(DaemonId id) const { return daemons_[id].alive; }
  int live() const { return live_; }
  std::uint64_t declared() const { return declared_counter_.value(); }

 private:
  // The auditor (src/check) checks the counts, the gauge and the heap.
  friend class ::hogsim::check::Auditor;

  struct Daemon {
    bool alive = false;
    bool armed = false;  // holds its entry in heap_
  };
  struct Expiry {
    SimTime deadline;
    DaemonId id;
    bool operator>(const Expiry& o) const {
      return deadline != o.deadline ? deadline > o.deadline : id > o.id;
    }
  };

  void Arm(DaemonId id);  // gives an alive daemon its heap entry
  void Check();           // the monitor tick
  void PublishLive();

  sim::Simulation& sim_;
  LivenessNames names_;
  std::unique_ptr<FailureDetector> detector_;
  SimDuration period_;
  std::function<void(DaemonId)> on_overdue_;
  obs::Gauge& live_gauge_;
  obs::Counter& declared_counter_;
  obs::Histogram& latency_;
  std::vector<Daemon> daemons_;
  // A min-heap under std::greater, kept as a plain vector so the auditor
  // can check that every alive daemon is in it.
  std::vector<Expiry> heap_;
  sim::PeriodicTimer monitor_;
  int live_ = 0;
};

/// The daemon's half: when heartbeat number `seq` from `node` reaches the
/// master. After the one-way `latency`, plus, under the delay-heartbeats
/// gray fault, a hash of (node, seq / 16) in [0, jitter]: seed-independent
/// and RNG-neutral. A window of 16 heartbeats shares one draw because a
/// gray node's lateness is bursty (GC and I/O pauses), and only correlated
/// delays open silences; independent draws would be masked by in-flight
/// neighbours filling every gap.
SimDuration HeartbeatDelay(SimDuration latency, std::uint64_t node,
                           std::uint64_t seq, SimDuration jitter);

/// Sends heartbeat number `seq` from `node`: `deliver` runs at the master
/// HeartbeatDelay(latency, node, seq, jitter) from now, at ScheduleAfter's
/// (time, seq). A nominal heartbeat (jitter 0) rides the Simulation's lane
/// for `latency`; a jittered one goes to the heap, since its delay changes
/// window by window and would use up the lanes.
void SendHeartbeat(sim::Simulation& sim, SimDuration latency,
                   std::uint64_t node, std::uint64_t seq, SimDuration jitter,
                   sim::Simulation::Callback deliver);

}  // namespace hogsim::health
