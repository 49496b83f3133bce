// Declarative chaos scenarios (hogsim::fault).
//
// A Scenario is an ordered list of timed failure actions — the declarative
// front end of the fault-injection subsystem (see injector.h for the engine
// that drives them into the live layers). Scenarios come from two sources:
//
//  1. Scenario files: a small line-oriented language, one directive per
//     line, `#` comments:
//
//        at <time> <action> <args...>
//        every <period> [until <time>] <action> <args...>
//
//     Times and durations are `<number><unit>` with unit one of
//     us/ms/s/m/h; a bare number means seconds. `at` fires once, `every`
//     recurs each period (first firing after one full period), optionally
//     stopping at `until`. All times are relative to the moment the
//     scenario is armed (FaultInjector::Arm), so the same file drives a
//     spin-up drill or a mid-workload storm depending on when it is armed.
//
//  2. Preemption traces: empirical OSG-style churn records
//     (`timestamp_s site node_count`, cf. Zhang et al.'s OSG preemption
//     mining, arXiv:1807.06639) replayed verbatim as preempt-nodes
//     actions — ParsePreemptionTrace converts a trace into a Scenario.
//
// The grammar is deliberately tiny and fully round-trippable:
// FormatScenario renders the canonical text form and
// ParseScenario(FormatScenario(s)) reproduces `s` exactly (golden tests in
// tests/fault_test.cc rely on this).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/units.h"

namespace hogsim::fault {

/// Every failure the injector knows how to inject. Each kind's directive
/// name and operand list are written once, in scenario.cc's grammar table
/// (documented in EXPERIMENTS.md).
enum class ActionKind {
  kPreemptNodes,        ///< clean preemption of running leases
  kPreemptSite,         ///< correlated burst: a fraction of a site
  kZombify,             ///< forced §IV.D.1 zombies
  kFreezeAcquisition,   ///< no new glideins start for a while
  kThrottleAcquisition, ///< slower batch queue for new glideins
  kDegradeUplink,       ///< scaled site WAN uplink
  kPartition,           ///< two sites cut off from each other
  kShrinkDisks,         ///< scaled disk capacity
  kFillDisks,           ///< disks filled up to a fraction
  kNamenodeBlackout,    ///< namenode crash, restart after a while
  kJobtrackerBlackout,  ///< jobtracker crash, restart after a while
  kFailTor,             ///< a rack's ToR switch dies
  kPartitionRack,       ///< a rack cut off from its site's fabric
  kDegradeFabric,       ///< scaled intra-site fabric links
  // Gray faults: the node stays up and heartbeating but misbehaves.
  kSlowNode,            ///< compute slowdown on one lease
  kSlowSite,            ///< compute slowdown on a site's leases
  kDelayHeartbeats,     ///< heartbeat jitter on a site's leases
  kStallDisk,           ///< intermittent IO freeze on one lease
};

/// Number of ActionKinds (kinds are 0 .. kActionKinds - 1).
constexpr std::size_t kActionKinds =
    static_cast<std::size_t>(ActionKind::kStallDisk) + 1;

/// The scenario-file directive name for a kind ("preempt-site", ...).
std::string_view ActionName(ActionKind kind);

/// Site selector meaning "every site" (the literal `all` in files).
constexpr int kAllSites = -1;

/// One failure to inject. Which fields are meaningful depends on `kind`;
/// the parser guarantees the invariants documented per field.
struct Action {
  ActionKind kind = ActionKind::kPreemptNodes;
  /// Grid-site index, or kAllSites. Partition: the first site (never
  /// kAllSites).
  int site = kAllSites;
  /// Partition only: the second site (never kAllSites, != site).
  int site_b = kAllSites;
  /// fail-tor / partition-rack only: rack index within the site (>= 0).
  /// Racks exist only under multi-rack net topologies (src/net/topo); the
  /// injector passes over sites without the rack and counts the action
  /// skipped when no named site has it.
  int rack = 0;
  /// slow-node / stall-disk only (>= 0): an index into the leases running
  /// when the action fires — the node-th in lease-id order, modulo their
  /// count. Skipped only when no lease is running.
  int node = 0;
  /// delay-heartbeats only: max extra per-heartbeat delay (> 0); each
  /// heartbeat is held back by a deterministic hash-derived amount in
  /// [0, jitter], never touching any RNG stream.
  SimDuration jitter = 0;
  /// COUNT (integral, >= 1), FRACTION (in [0,1]) or FACTOR (> 0),
  /// depending on the kind. Unused kinds leave it 0.
  double value = 0;
  /// DURATION operand; > 0 where the grammar requires one, 0 where the
  /// kind takes none (degrade-uplink: 0 = permanent).
  SimDuration duration = 0;
};

/// One scheduled injection.
struct TimedAction {
  SimTime at = 0;          ///< arm-relative firing time (`at` / first period)
  SimDuration period = 0;  ///< > 0: recurring every `period` ticks
  SimTime until = 0;       ///< recurring only: stop after this time (0 = never)
  Action action;
  int line = 0;            ///< 1-based source line (diagnostics)
};

struct Scenario {
  std::string name = "<scenario>";  ///< source path or label, for messages
  std::vector<TimedAction> actions;

  bool empty() const { return actions.empty(); }
};

/// Parse failure, with the precise source position of the offending token.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(std::string_view source, int line, int column,
                const std::string& message);

  int line() const { return line_; }      ///< 1-based
  int column() const { return column_; }  ///< 1-based

 private:
  int line_;
  int column_;
};

/// Parses scenario text. Throws ScenarioError (message prefixed
/// "<source>:<line>:<col>:") on the first malformed directive.
Scenario ParseScenario(std::string_view text,
                       std::string_view source = "<scenario>");

/// Canonical text form; ParseScenario round-trips it exactly.
std::string FormatScenario(const Scenario& scenario);

/// Parses an OSG-style preemption trace: one `timestamp_s site node_count`
/// record per line (`#` comments), replayed as preempt-nodes actions.
/// Throws ScenarioError on malformed records.
Scenario ParsePreemptionTrace(std::string_view text,
                              std::string_view source = "<trace>");

/// Reads `path` and parses it — as a preemption trace when the filename
/// ends in ".trace", as scenario text otherwise. Throws std::runtime_error
/// if the file cannot be read, ScenarioError on parse failure.
Scenario LoadScenarioFile(const std::string& path);

}  // namespace hogsim::fault
