// Node quarantine: probation for flapping and gray-degraded nodes.
//
// Crisp failures are handled by the failure detector (src/health/detector.h)
// plus re-execution; the nodes that *hurt* an opportunistic grid are the
// gray ones — alive enough to heartbeat, degraded enough to drag every
// task placed on them, or flapping through declared-lost/revived cycles
// that churn re-replication and re-execution. The ATLAS experience
// (arXiv:1511.01446) is that steering away from such nodes pays.
//
// Quarantine watches three evidence streams, all keyed by grid-wide
// net::NodeId (a glidein's tasktracker and datanode share the node):
//
//   flaps          a master declared the node lost and a later heartbeat
//                  revived it (fed from both masters' revival seams;
//                  counted in health.flaps).
//   heartbeat      EWMA of the tasktracker's inter-arrival jitter vs the
//   jitter         configured cadence; sustained lateness is the gray
//                  signature that precedes death.
//   task duration  EWMA of per-node successful-map wall seconds vs the
//                  MEDIAN of the same-site peer nodes' EWMAs (reduce wall
//                  time is shuffle-wait dominated, so it carries no
//                  per-node signal; the median — over peers, excluding
//                  the node itself — stays honest when a minority of the
//                  site is slow). A node N x over the peer median is
//                  degraded even if it never misses a heartbeat.
//
// A node crossing any trigger enters PROBATION: the jobtracker stops
// offering it new work (sched::ClusterView exposes the flag so policies
// can also steer), HDFS placement deprioritizes it for new replicas, and
// the RF controller prices its copies at elevated loss risk. Release is
// hysteretic: a node leaves probation only after `probation_min` AND a
// full quiet window (no flap, jitter and duration EWMAs back under the
// release thresholds) — so a boundary-hovering node does not oscillate.
//
// Everything is deterministic (no RNG) and observational state is updated
// inline on the feeds; the periodic tick only evaluates release.
// A HogCluster builds a Quarantine only when its config.quarantine is
// engaged; without one, the masters feed nothing and no node is ever
// probated, so default-config runs stay byte-identical to the pre-health
// baselines.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/simulation.h"
#include "src/util/units.h"

namespace hogsim::check {
class Auditor;
}  // namespace hogsim::check

namespace hogsim::health {

struct QuarantineConfig {
  /// Probation trigger: lost-then-revived cycles on this node.
  int flap_threshold = 2;

  /// Probation trigger: heartbeat inter-arrival EWMA above
  /// jitter_factor * the nominal heartbeat interval.
  double jitter_factor = 3.0;

  /// Probation trigger: per-node task-duration EWMA above
  /// degrade_factor * the median of same-site peer node EWMAs (needs
  /// min_task_samples on the node and on >= 3 peers).
  double degrade_factor = 1.8;
  int min_task_samples = 4;

  /// EWMA gains for the jitter and duration estimators.
  double jitter_alpha = 0.2;
  double duration_alpha = 0.25;

  /// Hysteretic release: probation lasts at least probation_min, and ends
  /// only after a quiet_window with no flap and both EWMAs under
  /// release_fraction of their trigger levels.
  SimDuration probation_min = 5 * kMinute;
  SimDuration quiet_window = 3 * kMinute;
  double release_fraction = 0.8;

  /// Release-evaluation cadence.
  SimDuration tick = 30 * kSecond;
};

class Quarantine {
 public:
  /// `heartbeat_interval` is the tasktrackers' nominal cadence, which the
  /// jitter trigger compares against. `site_of` maps a net node to its
  /// site index (from the grid); it must stay valid for the quarantine's
  /// lifetime.
  Quarantine(sim::Simulation& sim, QuarantineConfig config,
             SimDuration heartbeat_interval,
             std::function<int(std::uint32_t)> site_of);

  /// Arms the release tick.
  void Start();

  // -- Evidence feeds ----------------------------------------------------

  /// A master's revival seam fired: `node` had been declared lost and a
  /// live heartbeat brought it back.
  void OnFlap(std::uint32_t node);

  /// A tasktracker heartbeat from `node` arrived at the jobtracker.
  void OnHeartbeat(std::uint32_t node, SimTime now);

  /// A task attempt's compute phase on `node` took `seconds`.
  void OnTaskDuration(std::uint32_t node, double seconds);

  /// The node's process died for real; its evidence is retired (a fresh
  /// glidein on the same net node starts clean).
  void OnNodeDead(std::uint32_t node);

  // -- Queries -----------------------------------------------------------

  bool Probated(std::uint32_t node) const;
  int FlapCount(std::uint32_t node) const;

  std::uint64_t flaps() const { return ins_.flaps.value(); }
  std::uint64_t probations_entered() const {
    return ins_.probations_entered.value();
  }
  std::uint64_t probations_released() const {
    return ins_.probations_released.value();
  }
  std::size_t probated_count() const { return probated_count_; }

  /// Release evaluation right now (tests drive this directly).
  void TickNow() { Tick(); }

 private:
  friend class ::hogsim::check::Auditor;

  struct NodeState {
    int flaps = 0;
    double jitter_ewma_s = 0;  // mean inter-arrival, seconds
    int heartbeat_samples = 0;
    SimTime last_heartbeat = 0;
    double duration_ewma_s = 0;
    int task_samples = 0;
    int site = -1;  // cached on first duration sample
    bool probated = false;
    SimTime probated_at = 0;
    SimTime last_bad = 0;  // last flap or over-threshold observation
  };

  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& m)
        : flaps(m.GetCounter("health.flaps")),
          probations_entered(m.GetCounter("health.probation.entered")),
          probations_released(m.GetCounter("health.probation.released")),
          probated(m.GetGauge("health.probated")),
          degraded_detected(m.GetCounter("health.degraded.detected")) {}
    obs::Counter& flaps;
    obs::Counter& probations_entered;
    obs::Counter& probations_released;
    obs::Gauge& probated;
    obs::Counter& degraded_detected;
  };

  NodeState& StateOf(std::uint32_t node);
  /// Median duration EWMA over the same-site peers of `node` (excluding
  /// the node itself; peers need min_task_samples). 0 when < 3 peers
  /// qualify — no verdict on a thin baseline.
  double PeerMedian(std::uint32_t node, int site) const;
  void MaybeProbate(std::uint32_t node, NodeState& s, const char* reason);
  void Release(std::uint32_t node, NodeState& s);
  /// True when the node currently exceeds a probation trigger (also
  /// refreshes last_bad).
  bool Bad(std::uint32_t node, NodeState& s);
  void Tick();

  sim::Simulation& sim_;
  QuarantineConfig config_;
  SimDuration heartbeat_interval_;
  std::function<int(std::uint32_t)> site_of_;
  Instruments ins_;
  std::vector<NodeState> nodes_;  // dense by net node id
  sim::PeriodicTimer timer_;

  std::size_t probated_count_ = 0;
};

}  // namespace hogsim::health
