// Fault-injection engine (hogsim::fault).
//
// A FaultInjector takes a parsed Scenario (scenario.h) and drives it into
// the live simulation layers: Grid preemption/zombification/acquisition
// faults, FlowNetwork uplink degradation and inter-site partitions,
// per-node Disk capacity faults, and namenode/jobtracker blackout windows.
//
// Timing: Arm() pins the scenario's time origin to the current sim time, so
// every `at`/`every` directive is relative to the arming moment. Benches
// arm after cluster spin-up (exp::RunHogWorkload), which makes scenario
// times workload-relative and — because injection consumes no run RNG —
// seed-independent: the same scenario file perturbs every seed of a sweep
// at the same workload-relative instants.
//
// Zero-cost-when-unused rule (DESIGN.md): the injector is a separate
// object scheduling ordinary events; the hooks it calls add at most one
// comparison (or an empty-set check) to the organic paths, and a run that
// never constructs an injector executes exactly the pre-fault code.
//
// Targets are resolved when an action fires, not when it is parsed: a
// site selector against the grid's sites, a rack or fabric against the
// net topology, and a slow-node / stall-disk NODE operand against the
// leases running at that moment (the NODE-th in id order, modulo their
// count). An action that reaches no target is counted as skipped, with a
// warning naming what was missing; every other action is injected.
//
// Observability: every injected action bumps the per-directive counter
// `fault.<directive, '-' as '_'>.injected` plus the
// `fault.actions.injected` total, and emits a "fault"-category tracer
// instant named after the directive — injected faults are
// distinguishable from organic ones in any Chrome trace or metrics
// snapshot.
#pragma once

#include <cstdint>
#include <vector>

#include "src/fault/scenario.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"

namespace hogsim::grid {
class Grid;
}
namespace hogsim::net {
class FlowNetwork;
}
namespace hogsim::hdfs {
class Namenode;
}
namespace hogsim::mr {
class JobTracker;
}

namespace hogsim::fault {

/// The layers a scenario may touch. Null members are allowed: actions
/// aimed at an absent layer are skipped with a warning, so one scenario
/// file works against both a full HOG cluster and a grid-only harness.
struct InjectorTargets {
  grid::Grid* grid = nullptr;
  net::FlowNetwork* net = nullptr;
  hdfs::Namenode* namenode = nullptr;
  mr::JobTracker* jobtracker = nullptr;
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& sim, InjectorTargets targets,
                Scenario scenario);
  ~FaultInjector() { Disarm(); }
  // Scheduled events capture `this`: no copies, no moves.
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every scenario action relative to the current sim time.
  /// Arming twice is an error (assert); Disarm() first to re-arm.
  void Arm();

  /// Cancels all pending injections (fired ones stay fired).
  void Disarm();

  bool armed() const { return armed_; }
  SimTime origin() const { return origin_; }

  /// Actions actually applied so far (== fault.actions.injected).
  std::uint64_t injected() const { return total_counter_.value(); }
  /// Actions that reached no target: an absent layer, an out-of-range
  /// site, a rack or fabric no named site has, or no running lease.
  std::uint64_t skipped() const { return skipped_; }

 private:
  void Schedule(std::size_t index, SimTime rel);
  void Fire(std::size_t index, SimTime rel);
  /// Resolves the action's targets and injects it, or counts it skipped.
  void Apply(const Action& action);
  /// Schedules `undo` `after` from now, then the tracer instant `instant`
  /// (none when null) with `arg`. No-op for after <= 0: a permanent fault.
  void Restore(SimDuration after, const char* instant, std::uint64_t arg,
               sim::Simulation::Callback undo);

  sim::Simulation& sim_;
  InjectorTargets targets_;
  Scenario scenario_;
  obs::Counter& total_counter_;
  std::vector<obs::Counter*> kind_counters_;  // indexed by ActionKind
  std::vector<sim::EventHandle> events_;      // one slot per scenario action
  std::vector<sim::EventHandle> restore_events_;  // heals/restarts/restores
  SimTime origin_ = 0;
  bool armed_ = false;
  std::uint64_t skipped_ = 0;
};

}  // namespace hogsim::fault
