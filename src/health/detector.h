// Pluggable failure detection for the master daemons.
//
// Both masters (the jobtracker for tasktrackers, the namenode for
// datanodes) watch heartbeats and declare a daemon dead after enough
// silence. HOG's §IV fix is a fixed 30 s recheck — crisp, but real OSG
// nodes mostly fail *gray*: they heartbeat late long before they die, and
// a fixed deadline must choose between false positives under jitter and
// slow detection under silence. This seam makes the conviction rule a
// plugin, the same pattern as the scheduler zoo (src/sched) and the
// topology zoo (src/net/topo):
//
//   deadline  today's fixed recheck, byte-pinned as the degenerate case:
//             Deadline(id) = last_heartbeat + timeout, exactly the legacy
//             `now - last_heartbeat > timeout` conviction.
//   phi       phi-accrual (Hayashibara et al.): per-daemon EWMAs of the
//             heartbeat inter-arrival mean and variance; the deadline
//             adapts to the observed cadence, so a jittery-but-alive node
//             earns a longer leash while a steady node that goes silent
//             is convicted in a few intervals instead of the full fixed
//             timeout. A hard cap bounds detection latency regardless of
//             how noisy the history was.
//
// Selection uses the one plug-in spec grammar "name[:key=value;...]"
// (CreateDetector, src/util/spec.h), surfaced as --detector on every
// bench. Detectors are consulted by health::Liveness, the masters'
// heartbeat expiry: they own no timers, draw no RNG, and a master
// declares `id` dead at the first monitor tick with Deadline(id) < now.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/units.h"

namespace hogsim::health {

/// A daemon id in the owning master's dense id space (TrackerId or
/// DatanodeId); each master owns its own detector instance.
using DaemonId = std::uint32_t;

class FailureDetector {
 public:
  virtual ~FailureDetector() = default;

  /// Registry name ("deadline", "phi").
  virtual std::string name() const = 0;

  /// A heartbeat from `id` arrived at `now`. Registration counts as the
  /// first heartbeat. Arrival times are non-decreasing per id.
  virtual void OnHeartbeat(DaemonId id, SimTime now) = 0;

  /// Drops all state for `id`; the next OnHeartbeat starts a fresh
  /// history. Called when a master restart re-admits a daemon that
  /// survived the outage: the blackout gap is not a heartbeat interval.
  /// A declare deliberately keeps the history (see Liveness::Declare).
  virtual void Forget(DaemonId id) = 0;

  /// Arrival time of `id`'s last heartbeat; the largest SimTime when none
  /// was recorded since the last Forget.
  virtual SimTime LastHeartbeat(DaemonId id) const = 0;

  /// The conviction deadline: the master declares `id` dead at the first
  /// monitor tick where Deadline(id) < now and no heartbeat arrived in
  /// between. Must be > the id's last recorded heartbeat.
  virtual SimTime Deadline(DaemonId id) const = 0;

  /// Suspicion level of `id` at `now` — monotone non-decreasing in `now`
  /// between heartbeats, and >= `threshold` semantics are detector
  /// defined. Purely observational (metrics, tests); the conviction rule
  /// is Deadline().
  virtual double Suspicion(DaemonId id, SimTime now) const = 0;
};

/// The degenerate fixed-deadline detector: Deadline = last + timeout.
/// Byte-pinned against the pre-seam masters (tests/health_test.cc, and the
/// check.sh compare_bench legs, which hold every deterministic row of
/// BENCH_sched.json and BENCH_scale.json exact).
class DeadlineDetector final : public FailureDetector {
 public:
  explicit DeadlineDetector(SimDuration timeout) : timeout_(timeout) {}

  std::string name() const override { return "deadline"; }
  void OnHeartbeat(DaemonId id, SimTime now) override;
  void Forget(DaemonId id) override;
  SimTime LastHeartbeat(DaemonId id) const override;
  SimTime Deadline(DaemonId id) const override;
  double Suspicion(DaemonId id, SimTime now) const override;

 private:
  SimDuration timeout_;
  std::vector<SimTime> last_;  // dense by id; kNever when unknown
};

struct PhiDetectorConfig {
  /// Suspicion threshold Phi: conviction when the probability that a
  /// heartbeat is merely late drops below 10^-phi. 8 is the classic
  /// production setting (Cassandra, Akka).
  double threshold = 8.0;

  /// EWMA window, in heartbeats: alpha = 2 / (window + 1). Small windows
  /// adapt fast but forget fast.
  double window = 64.0;

  /// Heartbeats observed before the adaptive deadline is trusted; until
  /// then the bootstrap (fixed) timeout applies.
  int min_samples = 8;

  /// Sigma floor as a fraction of the mean inter-arrival: a perfectly
  /// steady cadence (zero observed variance — common in a simulator)
  /// must not collapse the deadline onto the next expected heartbeat.
  double sigma_floor = 0.15;

  /// Fallback/conviction bounds, as multiples of the master's configured
  /// fixed timeout: the adaptive deadline is clamped to
  /// [floor * timeout, cap * timeout], so detection latency stays bounded
  /// no matter how noisy the learned cadence was, and a freshly
  /// registered daemon gets exactly the fixed timeout.
  double floor = 1.0 / 6.0;
  double cap = 4.0;
};

/// Phi-accrual failure detection over per-daemon inter-arrival EWMAs.
class PhiDetector final : public FailureDetector {
 public:
  PhiDetector(SimDuration bootstrap_timeout, PhiDetectorConfig config);

  std::string name() const override { return "phi"; }
  void OnHeartbeat(DaemonId id, SimTime now) override;
  void Forget(DaemonId id) override;
  SimTime LastHeartbeat(DaemonId id) const override;
  SimTime Deadline(DaemonId id) const override;
  double Suspicion(DaemonId id, SimTime now) const override;

  const PhiDetectorConfig& config() const { return config_; }

  /// Learned mean inter-arrival for `id` in seconds (0 before the first
  /// interval); exposed for tests.
  double MeanIntervalSeconds(DaemonId id) const;

 private:
  struct State {
    SimTime last = 0;
    double mean_s = 0;  // EWMA of inter-arrival, seconds
    double var_s2 = 0;  // EWMA of inter-arrival variance, seconds^2
    int samples = 0;    // recorded intervals
    bool known = false;
  };

  /// Adaptive silence budget for a state, in ticks (clamped).
  SimDuration SilenceBudget(const State& s) const;

  SimDuration bootstrap_;
  PhiDetectorConfig config_;
  double alpha_;   // EWMA gain
  double z_;       // upper-tail normal quantile for 10^-threshold
  std::vector<State> states_;
};

/// "name[:key=value;...]" -> detector instance, in the one plug-in spec
/// grammar (src/util/spec.h), e.g. "phi:threshold=8;window=64".
/// `bootstrap_timeout` is the owning master's fixed expiry
/// (tracker_expiry / heartbeat_recheck): the `deadline` detector uses it
/// verbatim, `phi` bootstraps and clamps with it. Throws
/// std::invalid_argument on unknown names or parameters.
std::unique_ptr<FailureDetector> CreateDetector(const std::string& spec,
                                                SimDuration bootstrap_timeout);

/// Registry names, for diagnostics and bench flag validation.
const std::vector<std::string>& DetectorNames();

/// Upper-tail standard-normal quantile: the z with P(X > z) = p, for
/// p in (0, 0.5]. Deterministic bisection on erfc; exposed for tests.
double NormalUpperTailQuantile(double p);

}  // namespace hogsim::health
