// Seeded random chaos scenarios for the soak harness (hogbench soak).
//
// RandomScenario draws a timed action sequence from a *survivable*
// palette: every fault it emits is one the recovery machinery is supposed
// to absorb — partial site preemptions, zombie outbreaks, acquisition
// freezes, uplink degradation, partitions, and bounded master blackouts.
// Deliberately excluded are disk shrink/fill actions (which can fail jobs
// legitimately through ENOSPC rather than through a recovery bug) and
// whole-cluster wipes, so a soak run asserting "all jobs terminate, no
// committed output lost" tests self-healing, not the impossible.
//
// The generator owns a private Rng seeded from its argument and draws no
// run RNG: the same seed yields byte-identical scenario text on every
// machine, and generating scenarios never perturbs a simulation.
#pragma once

#include <cstdint>

#include "src/fault/scenario.h"

namespace hogsim::fault {

/// Every scenario draws 8 actions at whole seconds in [30 s, 40 min],
/// aimed at grid sites 0-4, with at most two master blackouts.
struct RandomScenarioOptions {
  /// Mix in the gray-fault palette (slow-node / slow-site /
  /// delay-heartbeats / stall-disk): bounded, self-restoring degradations
  /// the detectors and quarantine are supposed to ride out. Off by
  /// default so pre-existing seeds keep their byte-identical scenarios.
  bool gray = false;
};

/// Generates a deterministic random scenario named "random-<seed>",
/// actions sorted by firing time.
Scenario RandomScenario(std::uint64_t seed,
                        RandomScenarioOptions options = {});

}  // namespace hogsim::fault
